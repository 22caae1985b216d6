package channelmod

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/genscen"
	"repro/internal/scenario"
)

// updateGolden rewrites testdata/golden_jobs.tsv from this build:
//
//	go test -run TestGoldenJobs -update-golden .
//
// Regenerate only for a deliberate change of results or addresses, and
// list the rows that changed with the change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_jobs.tsv from this build")

const goldenPath = "testdata/golden_jobs.tsv"

// goldenRuntimeScenario is a reduced E10: four channels at a 40 W/cm²
// base and a periodic trace whose 160 W/cm² hotspot visits each channel
// for 15 ms, in 5 ms controller epochs.
func goldenRuntimeScenario(horizonMS float64) Scenario {
	const nChannels = 4
	uniform := func(wcm2 float64) scenario.Channel {
		return scenario.Channel{TopWcm2: []float64{wcm2}, BottomWcm2: []float64{wcm2}}
	}
	base := make([]scenario.Channel, nChannels)
	for k := range base {
		base[k] = uniform(40)
	}
	var phases []scenario.Phase
	for hot := 0; hot < nChannels; hot++ {
		chans := make([]scenario.Channel, nChannels)
		for k := range chans {
			wcm2 := 40.0
			if k == hot {
				wcm2 = 160
			}
			chans[k] = uniform(wcm2)
		}
		phases = append(phases, scenario.Phase{DurationMS: 15, Channels: chans})
	}
	return Scenario{
		Segments:        8,
		OuterIterations: 3,
		Channels:        base,
		Trace:           &scenario.Trace{Periodic: true, Phases: phases},
		Runtime:         &scenario.Runtime{DtMS: 1, EpochMS: 5, NX: 40, HorizonMS: horizonMS},
	}
}

type goldenJob struct {
	label string
	job   *Job
}

// goldenJobs covers every job kind on the presets and three generated
// floorplans, with the optimizer variants whose results come from
// different code: adjoint and finite-difference gradients, Nelder–Mead,
// and value-only solves (baselines, flow sweeps, fixed-width maps and
// transients).
func goldenJobs(t *testing.T) []goldenJob {
	preset := func(name string) Scenario { return Scenario{Preset: name} }
	optimize := func(s Scenario, v *OptimizeJobSpec) *Job {
		return &Job{Kind: JobOptimize, Scenario: s, Optimize: v}
	}
	compare := func(s Scenario) *Job { return &Job{Kind: JobCompare, Scenario: s} }
	sweep := func(s Scenario, sw *SweepJobSpec) *Job { return &Job{Kind: JobSweep, Scenario: s, Sweep: sw} }
	thermalMap := func(s Scenario, m *MapJobSpec) *Job { return &Job{Kind: JobThermalMap, Scenario: s, Map: m} }
	testAWith := func(solver, gradient string) Scenario {
		s := preset("testA")
		s.Solver, s.Gradient = solver, gradient
		return s
	}
	seed1 := int64(1)
	traceDesign := goldenRuntimeScenario(0)
	traceDesign.Runtime = nil
	transient := goldenRuntimeScenario(0)
	transient.Runtime = &scenario.Runtime{DtMS: 1, NX: 40, HorizonMS: 10}

	jobs := []goldenJob{
		{"compare/testA", compare(preset("testA"))},
		{"compare/testB", compare(preset("testB"))},
		{"compare/testB-seed1", compare(Scenario{Preset: "testB", Seed: &seed1})},
		{"compare/arch3", compare(preset("arch3"))},
		{"optimize/testA", optimize(preset("testA"), nil)},
		{"optimize/testA/fd", optimize(testAWith("", "fd"), nil)},
		{"optimize/testA/neldermead", optimize(testAWith("neldermead", ""), nil)},
		{"optimize/testA/projgrad", optimize(testAWith("projgrad", ""), nil)},
		{"optimize/baseline/testB", optimize(preset("testB"), &OptimizeJobSpec{Variant: "baseline", WidthUM: 30})},
		{"optimize/flow-allocation/testB", optimize(preset("testB"), &OptimizeJobSpec{Variant: "flow-allocation"})},
		{"optimize/min-pumping/testA", optimize(preset("testA"), &OptimizeJobSpec{Variant: "min-pumping", MaxGradientK: 22})},
		{"optimize/trace-design/e10", optimize(traceDesign, &OptimizeJobSpec{Variant: "trace-design"})},
		{"sweep/segments/testB", sweep(preset("testB"), &SweepJobSpec{Kind: "segments", Segments: []int{5, 10, 20}})},
		{"sweep/pressure/testB", sweep(preset("testB"), &SweepJobSpec{Kind: "pressure", PressureBars: []float64{2, 10, 20}})},
		{"sweep/flow/testA", sweep(preset("testA"), &SweepJobSpec{Kind: "flow", Points: 3})},
		{"arch-experiment/arch3-peak", &Job{Kind: JobArchExperiment, Scenario: Scenario{Segments: 4, OuterIterations: 1},
			Experiment: &ExperimentJobSpec{Archs: []int{3}, Modes: []string{"peak"}}}},
		{"thermalmap/optimal/arch3", thermalMap(preset("arch3"), &MapJobSpec{Widths: "optimal"})},
		{"thermalmap/max/testA", thermalMap(preset("testA"), &MapJobSpec{Widths: "max"})},
		{"transient/e10/uniform", &Job{Kind: JobTransient, Scenario: transient, Transient: &TransientJobSpec{WidthUM: 50}}},
		{"runtime/e10", &Job{Kind: JobRuntime, Scenario: goldenRuntimeScenario(10)}},
	}
	for _, seed := range []int64{1, 2} {
		f, err := genscen.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		f.Trace, f.Runtime = nil, nil
		f.Segments = 2
		f.OuterIterations = 0
		f.Solver = "lbfgsb"
		f.EqualPressure = false
		jobs = append(jobs, goldenJob{fmt.Sprintf("compare/genscen%d", seed), compare(*f)})
	}

	// The prepare paths chanmodd runs on every request: a seeded Test-B
	// flow sweep (the shape of perfbench serve's asynchronous jobs), a
	// floorplan compare in average mode, and a transient whose trace
	// scales the base loads (its design resolves through a trace-design
	// sub-job).
	seedB := int64(424242)
	flowSweep := Scenario{Preset: "testB", Seed: &seedB, Segments: 1, OuterIterations: 1}
	jobs = append(jobs, goldenJob{"sweep/flow/testB-seeded",
		sweep(flowSweep, &SweepJobSpec{Kind: "flow", FlowMLMin: []float64{0.3, 0.4, 0.5}})})
	f, err := genscen.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	f.Trace, f.Runtime = nil, nil
	f.Mode = "average"
	f.Segments = 2
	f.OuterIterations = 0
	f.Solver = "lbfgsb"
	f.EqualPressure = false
	jobs = append(jobs, goldenJob{"compare/genscen3/average", compare(*f)})
	full, idle, half := 1.0, 0.0, 0.5
	scaled := Scenario{
		Segments:        2,
		OuterIterations: 1,
		Channels: []scenario.Channel{
			{TopWcm2: []float64{60, 120}, BottomWcm2: []float64{40, 40}},
			{TopWcm2: []float64{40, 40}, BottomWcm2: []float64{80, 30}},
		},
		Trace: &scenario.Trace{Periodic: true, Phases: []scenario.Phase{
			{DurationMS: 4, Scale: &full},
			{DurationMS: 3, Scale: &idle},
			{DurationMS: 3, Scale: &half},
		}},
		Runtime: &scenario.Runtime{DtMS: 1, NX: 20, HorizonMS: 10},
	}
	jobs = append(jobs, goldenJob{"transient/scaled-trace",
		&Job{Kind: JobTransient, Scenario: scaled}})
	return jobs
}

// goldenRow is one line of the table: a job's label, content address and
// the SHA-256 of its result JSON.
type goldenRow struct {
	label, address, digest string
}

func readGolden(t *testing.T) map[string]goldenRow {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	rows := make(map[string]goldenRow)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("%s: malformed row %q", goldenPath, line)
		}
		rows[f[0]] = goldenRow{f[0], f[1], f[2]}
	}
	return rows
}

func writeGolden(t *testing.T, rows []goldenRow) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# One row per job of golden_test.go: label, content address, SHA-256 of\n")
	b.WriteString("# the result JSON. Regenerate: go test -run TestGoldenJobs -update-golden .\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%s\t%s\n", r.label, r.address, r.digest)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenJobs pins what must not change unannounced: each job's
// content address (stable across commits and platforms) and the digest of
// its result JSON (compared on linux/amd64 only; other platforms may round
// differently). A change that moves a row must regenerate the table and
// list the moved rows.
func TestGoldenJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every golden job")
	}
	eng := NewEngine(0)
	var got []goldenRow
	for _, gj := range goldenJobs(t) {
		p, err := PrepareJob(gj.job)
		if err != nil {
			t.Fatalf("%s: %v", gj.label, err)
		}
		res, _, err := eng.RunPrepared(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", gj.label, err)
		}
		b, err := json.Marshal(res.JSON())
		if err != nil {
			t.Fatalf("%s: %v", gj.label, err)
		}
		sum := sha256.Sum256(b)
		got = append(got, goldenRow{gj.label, p.Hash, hex.EncodeToString(sum[:])})
	}
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	digests := runtime.GOOS == "linux" && runtime.GOARCH == "amd64"
	var diff []string
	for _, g := range got {
		w, ok := want[g.label]
		if !ok {
			diff = append(diff, fmt.Sprintf("+ %s: not in the table", g.label))
			continue
		}
		delete(want, g.label)
		if g.address != w.address {
			diff = append(diff, fmt.Sprintf("~ %s: address %s, table %s", g.label, g.address, w.address))
		}
		if digests && g.digest != w.digest {
			diff = append(diff, fmt.Sprintf("~ %s: result digest %s, table %s", g.label, g.digest, w.digest))
		}
	}
	for _, label := range slices.Sorted(maps.Keys(want)) {
		diff = append(diff, fmt.Sprintf("- %s: in the table, not a golden job", label))
	}
	if len(diff) > 0 {
		t.Errorf("%d golden rows differ (announce the change and regenerate with -update-golden):\n%s",
			len(diff), strings.Join(diff, "\n"))
	}
}
