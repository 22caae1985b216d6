package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/genscen"
	"repro/internal/scenario"
)

// corpusJobs wraps a generated scenario as a job of every kind, with the
// kind's section set where it has one.
func corpusJobs(f *scenario.File) []*engine.Job {
	var out []*engine.Job
	for _, kind := range engine.Kinds {
		j := &engine.Job{Kind: kind, Scenario: *f}
		switch kind {
		case engine.KindOptimize:
			j.Optimize = &engine.OptimizeSpec{Variant: engine.VariantTraceDesign}
		case engine.KindSweep:
			j.Sweep = &engine.SweepSpec{Kind: engine.SweepFlow, FlowMLMin: []float64{0.3, 0.6}}
		case engine.KindArchExperiment:
			j.Experiment = &engine.ExperimentSpec{Archs: []int{2}, Modes: []string{"average"}}
		case engine.KindThermalMap:
			j.Map = &engine.MapSpec{Widths: engine.WidthsMax, NX: 12}
		case engine.KindTransient:
			j.Transient = &engine.TransientSpec{WidthUM: 30}
		}
		out = append(out, j)
	}
	// A plain optimize too: trace-design is the only kind of it that
	// keeps the trace.
	return append(out, &engine.Job{Kind: engine.KindOptimize, Scenario: *f})
}

// TestCloneMatchesJSONRoundTrip: on the generated corpus — floorplans,
// traces with scale and explicit-channel phases, runtime sections — and
// on its explicit-channel projection, as jobs of every kind, the typed
// copy equals the JSON round trip, and preparing either gives the same
// verdict, canonical JSON and content address. Canonicalize's checks
// agree with the builders throughout.
func TestCloneMatchesJSONRoundTrip(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		f, err := genscen.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		files := []*scenario.File{f}
		if r, err := f.Rasterized(); err == nil {
			files = append(files, r)
		}
		for fi, file := range files {
			for _, j := range corpusJobs(file) {
				name := fmt.Sprintf("seed %d form %d %s", seed, fi, j.Kind)
				compareClones(t, name, j)
			}
		}
	}
}

// TestCloneNormalizesLikeJSON: empty omitempty lists come back nil from
// the typed copy as from the JSON round trip, so a trace phase holding a
// scale and an empty channel list validates as the scale phase its JSON
// form is.
func TestCloneNormalizesLikeJSON(t *testing.T) {
	one := 1.0
	j := &engine.Job{Kind: engine.KindRuntime, Scenario: scenario.File{
		Channels: []scenario.Channel{{TopWcm2: []float64{50}, BottomWcm2: []float64{}}},
		Trace: &scenario.Trace{Phases: []scenario.Phase{
			{DurationMS: 5, Scale: &one, Channels: []scenario.Channel{}},
		}},
	}}
	compareClones(t, "empty lists", j)
	j.Scenario.Channels[0].BottomWcm2 = []float64{40}
	if _, err := engine.PrepareJob(j); err != nil {
		t.Fatalf("scale phase with an empty channel list: %v", err)
	}
	sweep := &engine.Job{Kind: engine.KindSweep, Scenario: scenario.File{Preset: "testA", Channels: []scenario.Channel{}},
		Sweep: &engine.SweepSpec{Kind: engine.SweepFlow, PressureBars: []float64{}, Segments: []int{}, Points: 2}}
	compareClones(t, "empty sweep lists", sweep)
	arch := &engine.Job{Kind: engine.KindArchExperiment,
		Experiment: &engine.ExperimentSpec{Archs: []int{}, Modes: []string{}}}
	compareClones(t, "empty experiment lists", arch)
}

func compareClones(t *testing.T, name string, j *engine.Job) {
	t.Helper()
	ref := engine.JSONClone(t, j)
	if got := engine.Clone(j); !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: typed copy differs from the JSON round trip:\n%+v\n%+v", name, got, ref)
	}
	p, err := engine.PrepareJob(j)
	pRef, errRef := engine.PrepareJob(ref)
	if fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("%s: prepare says %v, from the JSON form %v", name, err, errRef)
	}
	if err := engine.CheckAgreement(j); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err != nil {
		return
	}
	a, _ := json.Marshal(p.Job)
	b, _ := json.Marshal(pRef.Job)
	if !bytes.Equal(a, b) || p.Hash != pRef.Hash {
		t.Fatalf("%s: canonical forms differ:\n%s %s\n%s %s", name, a, p.Hash, b, pRef.Hash)
	}
}
