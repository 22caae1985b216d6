package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	channelmod "repro"
	"repro/internal/control"
	"repro/internal/genscen/props"
)

func defaultTol() props.Tolerances { return props.Default() }

// lastLine decodes the result object printResult ends with.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	var r resultLine
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return r
}

func TestShedAndServerErrorsCountAsFailedOperations(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/run":
			http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
		default:
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	rd := &serveRound{client: newClient(srv.URL, 2)}
	defer rd.client.close()
	ctx := context.Background()
	recs := make([]opRecord, 3)
	rd.do(ctx, nil, 0, serveOp{kind: opHot, body: []byte(`{}`)}, &recs[0])
	rd.do(ctx, nil, 1, serveOp{kind: opAsync, body: []byte(`{}`)}, &recs[1])
	recs[2] = opRecord{kind: opHot, latency: time.Millisecond}
	for i, want := range []int{http.StatusTooManyRequests, http.StatusInternalServerError} {
		var he *httpError
		if !errors.As(recs[i].err, &he) || he.status != want {
			t.Errorf("op %d: error %v, want HTTP %d", i, recs[i].err, want)
		}
	}
	o := &outcome{setups: []time.Duration{time.Second}, closedOps: 1, closedWall: time.Second}
	tally(o, 0, "open-loop", recs)
	if o.attempted != 3 || o.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 3 and 2", o.attempted, o.failed)
	}
	var out bytes.Buffer
	if err := printResult(&out, o, endToEndMetrics, o.endToEnd()); err != nil {
		t.Fatal(err)
	}
	r := lastLine(t, out.String())
	if r.Failed != 2 || r.Attempted != 3 || !r.Correct || len(r.Metrics) != len(endToEndMetrics) {
		t.Fatalf("result %+v: want 2 of 3 failed, correct, and all %d metrics", r, len(endToEndMetrics))
	}
}

func TestJobErrorCountsAsOneFailedOperation(t *testing.T) {
	var jobs []planJob
	for _, j := range []*channelmod.Job{
		{Kind: channelmod.JobOptimize, Scenario: channelmod.Scenario{Preset: "testA"},
			Optimize: &channelmod.OptimizeJobSpec{Variant: "baseline"}},
		// min-pumping solves single-channel problems only: Test B fails
		// when it executes, not when it is prepared.
		{Kind: channelmod.JobOptimize, Scenario: channelmod.Scenario{Preset: "testB"},
			Optimize: &channelmod.OptimizeJobSpec{Variant: "min-pumping", MaxGradientK: 20}},
	} {
		pj, err := newPlanJob(string(j.Kind), j)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, pj)
	}
	prepared, err := prepareAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{setups: []time.Duration{time.Second}}
	start := time.Now()
	runJobList(context.Background(), nil, o, channelmod.NewEngine(0), prepared, "test", 0)
	o.closedWall = time.Since(start)
	if o.attempted != 2 || o.failed != 1 || o.closedOps != 1 {
		t.Fatalf("attempted %d, failed %d, completed %d; want 2, 1, 1", o.attempted, o.failed, o.closedOps)
	}
	var out bytes.Buffer
	if err := printResult(&out, o, endToEndMetrics, o.endToEnd()); err != nil {
		t.Fatal(err)
	}
	r := lastLine(t, out.String())
	if r.Failed != 1 || len(r.Metrics) != len(endToEndMetrics) {
		t.Fatalf("result %+v: want 1 failed and all %d metrics", r, len(endToEndMetrics))
	}
}

// TestMORDivergenceCountsAsOneFailedOperation: a MOR series outside its
// tolerance of the LU twin fails its job, once, and leaves the run
// correct; its time still counts.
func TestMORDivergenceCountsAsOneFailedOperation(t *testing.T) {
	plan, err := buildPlantPlan(1, true)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := prepareAll(plan.timed)
	if err != nil {
		t.Fatal(err)
	}
	series := func(shift float64) *channelmod.JobResult {
		var s control.RuntimeSeries
		for i := 0; i <= plantSteps; i++ {
			v := 300 + 20*math.Sin(float64(i)/10)
			s.Times = append(s.Times, float64(i))
			s.PeakK = append(s.PeakK, v+shift)
			s.GradientK = append(s.GradientK, v/10+shift)
		}
		return &channelmod.JobResult{Transient: &control.TransientRun{Series: s}}
	}
	rd := &plantRound{plan: plan, timed: timed, results: []*channelmod.JobResult{series(0), series(0.02), nil}}
	o := &outcome{}
	checkPlantRound(o, rd)
	if o.failed != 0 || len(o.problems) != 0 {
		t.Fatalf("agreeing MOR run: %d failed, problems %v", o.failed, o.problems)
	}
	rd.results[1] = series(10) // 10 K off a 40 K swing: 25%
	checkPlantRound(o, rd)
	if o.failed != 1 || len(o.problems) != 0 {
		t.Fatalf("diverging MOR run: %d failed, problems %v; want 1 failed and no problem", o.failed, o.problems)
	}
}
