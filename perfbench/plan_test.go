package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	channelmod "repro"
)

// planBodies flattens each workload's plan into the job documents it
// submits, in order.
var planBodies = map[string]func(seed int64) ([][]byte, error){
	"design": func(seed int64) ([][]byte, error) {
		p, err := buildDesignPlan(seed, false)
		if err != nil {
			return nil, err
		}
		return bodies(append(p.setup, p.timed...)), nil
	},
	"plant": func(seed int64) ([][]byte, error) {
		p, err := buildPlantPlan(seed, false)
		if err != nil {
			return nil, err
		}
		return bodies(append(append(p.setup, p.timed...), p.oneStep...)), nil
	},
	"serve": func(seed int64) ([][]byte, error) {
		p, err := buildServePlan(seed, false)
		if err != nil {
			return nil, err
		}
		out := append([][]byte(nil), p.hot...)
		for _, op := range append(p.open, p.closed...) {
			out = append(out, op.body)
			if op.wide != nil {
				out = append(out, op.wide)
			}
		}
		return out, nil
	},
}

func bodies(jobs []planJob) [][]byte {
	out := make([][]byte, len(jobs))
	for i, j := range jobs {
		out[i] = j.body
	}
	return out
}

// addresses returns the content address of every distinct document.
func addresses(t *testing.T, docs [][]byte) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	seen := make(map[string]bool)
	for _, b := range docs {
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		job, err := decodeJob(b)
		if err != nil {
			t.Fatal(err)
		}
		p, err := channelmod.PrepareJob(job)
		if err != nil {
			t.Fatalf("prepare %s: %v", b, err)
		}
		out[p.Hash] = true
	}
	return out
}

func TestPlansAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		build := planBodies[w.name]
		a, err := build(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := build(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := build(8)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: seed 7 gave %d and %d jobs", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: seed 7 job %d differs between two builds", w.name, i)
			}
		}
		addrA, addrC := addresses(t, a), addresses(t, c)
		if len(addrA) != len(addresses(t, b)) {
			t.Fatalf("%s: seed 7 builds disagree on their addresses", w.name)
		}
		fresh := 0
		for h := range addrC {
			if !addrA[h] {
				fresh++
			}
		}
		if fresh == 0 {
			t.Errorf("%s: seed 8 submits no job that seed 7 does not", w.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (metric{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command prints %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}
