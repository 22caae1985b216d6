package genscen

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/genscen/props"
	"repro/internal/scenario"
	"repro/internal/scenario/scenariotest"
)

// FuzzScenario fuzzes the generator over the full int64 seed space: any
// seed whatsoever must yield a valid, deterministic, round-trippable
// scenario whose build-free checks agree with its builders. The
// committed files under testdata/fuzz/FuzzScenario seed
// the corpus with the interesting boundary draws (zero, negative, the
// int64 extremes and a spread of corpus seeds).
func FuzzScenario(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 5, 39, 59, 100, 999, -1, -999, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		file, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		// Determinism: a second draw is byte-identical.
		again, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: second draw: %v", seed, err)
		}
		ja, _ := json.Marshal(file)
		jb, _ := json.Marshal(again)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d: non-deterministic draw", seed)
		}
		// The scenario round-trips through the strict JSON decoder.
		var back scenario.File
		dec := json.NewDecoder(bytes.NewReader(ja))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("seed %d: round-trip decode: %v", seed, err)
		}
		if _, err := back.Spec(); err != nil {
			t.Fatalf("seed %d: round-tripped spec: %v", seed, err)
		}
		// The build-free checks job preparation runs give the builders'
		// verdicts: Check that of Spec, CheckTrace and CheckRuntime those
		// of the trace and runtime builders.
		if err := scenariotest.CheckAgreement(&back); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Every draw canonicalizes as an engine job with a stable address.
		p1, err := engine.PrepareJob(CompareJob(file))
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		p2, err := engine.PrepareJob(CompareJob(&back))
		if err != nil {
			t.Fatalf("seed %d: prepare round-tripped: %v", seed, err)
		}
		if p1.Hash != p2.Hash {
			t.Fatalf("seed %d: round-trip changed the content address: %s vs %s", seed, p1.Hash, p2.Hash)
		}
	})
}

// FuzzGradientAgreement fuzzes the adjoint gradient over the seed space:
// for any generated scenario, the analytic gradient of the modulation
// objective must match central finite differences of the full solve.
// More expensive per execution than FuzzScenario (a gradient solve plus
// two model solves per probed parameter), so it is a separate target.
func FuzzGradientAgreement(f *testing.F) {
	for _, seed := range []int64{0, 1, 5, 39, 59, 100, -1, 1 << 40} {
		f.Add(seed)
	}
	tol := props.Default()
	f.Fuzz(func(t *testing.T, seed int64) {
		file, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		if err := props.GradientAgreement(file, tol); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
