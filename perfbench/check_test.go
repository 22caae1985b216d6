package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	channelmod "repro"
)

// Each output check must reject a deliberately corrupted output.

func TestEnergyCheckRejectsOnePercent(t *testing.T) {
	spec, err := channelmod.TestA()
	if err != nil {
		t.Fatal(err)
	}
	res, err := channelmod.Baseline(spec, spec.Bounds.Max)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEnthalpy(spec, res, 1e-4); err != nil {
		t.Fatalf("true solution rejected: %v", err)
	}
	bad := *res
	sol := *res.Solution
	sol.Channels = append(sol.Channels[:0:0], sol.Channels...)
	for k := range sol.Channels {
		tc := append(sol.Channels[k].TC[:0:0], sol.Channels[k].TC...)
		for i := range tc {
			tc[i] = tc[0] + 1.01*(tc[i]-tc[0])
		}
		sol.Channels[k].TC = tc
	}
	bad.Solution = &sol
	if err := checkEnthalpy(spec, &bad, 1e-4); err == nil {
		t.Fatal("coolant rise 1% high passed the energy check")
	}
}

func TestMapEnergyCheckRejectsOnePercent(t *testing.T) {
	s := steadyScenario(rand.New(rand.NewSource(1)), plantShape{3, 40})
	job := &channelmod.Job{Kind: channelmod.JobThermalMap, Scenario: s, Map: &channelmod.MapJobSpec{Widths: "max", NX: 40}}
	res, err := channelmod.NewEngine(0).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMapEnthalpy(s, res, 1e-4); err != nil {
		t.Fatalf("true map rejected: %v", err)
	}
	spec, err := s.Spec()
	if err != nil {
		t.Fatal(err)
	}
	f := *res.Map.Field
	f.Coolant = make([][]float64, len(res.Map.Field.Coolant))
	for j, row := range res.Map.Field.Coolant {
		f.Coolant[j] = append([]float64(nil), row...)
		last := len(row) - 1
		f.Coolant[j][last] = spec.Params.InletTemp + 1.01*(row[last]-spec.Params.InletTemp)
	}
	m := *res.Map
	m.Field = &f
	bad := *res
	bad.Map = &m
	if err := checkMapEnthalpy(s, &bad, 1e-4); err == nil {
		t.Fatal("outlet rise 1% high passed the map energy check")
	}
}

func TestSweepCheckRejectsDroppedPointAndWrongAddress(t *testing.T) {
	pj, err := newPlanJob("sweep", &channelmod.Job{Kind: channelmod.JobSweep,
		Scenario: channelmod.Scenario{Preset: "testA"},
		Sweep:    &channelmod.SweepJobSpec{Kind: "flow", FlowMLMin: []float64{0.3, 0.5, 0.7}}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := prepareAll([]planJob{pj})
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	results, events, _ := runJobList(context.Background(), nil, o, channelmod.NewEngine(0), jobs, "test", 0)
	if o.failed != 0 {
		t.Fatal(o.failures)
	}
	checkSweep(o, "sweep", jobs[0], results[0], events[0], defaultTol())
	if len(o.problems) != 0 {
		t.Fatalf("true sweep rejected: %v", o.problems)
	}
	checkSweep(o, "sweep", jobs[0], results[0], events[0][:2], defaultTol())
	if len(o.problems) == 0 {
		t.Fatal("a dropped streamed point passed the sweep check")
	}
	o.problems = nil
	bad := *results[0]
	sw := *bad.Sweep
	sw.Points = append(sw.Points[:0:0], sw.Points...)
	sw.Points[1].Hash = sw.Points[0].Hash
	bad.Sweep = &sw
	checkSweep(o, "sweep", jobs[0], &bad, events[0], defaultTol())
	if len(o.problems) == 0 {
		t.Fatal("a point with another point's address passed the sweep check")
	}
}

func TestEpochCheckRejectsValveRangeAndFlowLoss(t *testing.T) {
	pj, err := newPlanJob("e10", &channelmod.Job{Kind: channelmod.JobRuntime, Scenario: e10Scenario(10)})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := prepareAll([]planJob{pj})
	if err != nil {
		t.Fatal(err)
	}
	result := func(scales ...float64) *channelmod.JobResult {
		return &channelmod.JobResult{Runtime: &channelmod.RuntimeJobResult{Result: &channelmod.RuntimeResult{
			Epochs: []channelmod.EpochDecision{{FlowScales: scales}},
		}}}
	}
	for _, tc := range []struct {
		scales []float64
		ok     bool
	}{
		{[]float64{1, 1, 1, 1}, true},
		{[]float64{0.5, 1.5, 1, 1}, true},
		{[]float64{0.4, 1.2, 1.2, 1.2}, false}, // outside [0.5, 2], mean 1
		{[]float64{1.1, 1, 1, 1}, false},       // inside, total flow not conserved
	} {
		o := &outcome{}
		checkEpochs(o, "e10", jobs[0], result(tc.scales...))
		if ok := len(o.problems) == 0; ok != tc.ok {
			t.Errorf("flow scales %v: passed %v, want %v (%v)", tc.scales, ok, tc.ok, o.problems)
		}
	}
}

func TestMORCheckRejectsDivergence(t *testing.T) {
	lu := []float64{300, 305, 310, 320, 330}
	mor := []float64{300, 305.5, 311, 320.5, 330}
	if err := seriesAgree(lu, mor, 0.15, 0.05); err != nil {
		t.Fatalf("agreeing series rejected: %v", err)
	}
	mor[3] = 325 // 5 K off a 30 K swing: 16.7%
	if err := seriesAgree(lu, mor, 0.15, 0.05); err == nil {
		t.Fatal("a 16.7% deviation passed the MOR-vs-LU check")
	}
}

func TestFieldDiffNamesTheChangedField(t *testing.T) {
	res, err := channelmod.NewEngine(0).Run(context.Background(), &channelmod.Job{
		Kind: channelmod.JobSweep, Scenario: channelmod.Scenario{Preset: "testA"},
		Sweep: &channelmod.SweepJobSpec{Kind: "flow", FlowMLMin: []float64{0.3, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	want := res.JSON()
	if d := firstDiff(toAny(want), toAny(res.JSON()), "result"); d != "" {
		t.Fatalf("equal results differ: %s", d)
	}
	got := *want
	sw := *got.Sweep
	sw.Rows = append(sw.Rows[:0:0], sw.Rows...)
	sw.Rows[1].GradientK += 1e-9
	got.Sweep = &sw
	if d := firstDiff(toAny(&got), toAny(want), "result"); !strings.Contains(d, "result.sweep.rows[1].gradient_k") {
		t.Errorf("changed field reported as %q", d)
	}
	rows := toAny(want.Sweep.Rows).([]any)
	if d := firstDiff(rows[:1], toAny(want.Sweep.Rows), "rows"); d == "" {
		t.Error("a dropped streamed row reassembled into the result rows")
	}
}

// hotPair returns the first popular design at its two pressure budgets as
// job documents, with their addresses.
func hotPair(t *testing.T) (docs [2][]byte, addrs [2]string) {
	t.Helper()
	hot, err := hotDesigns(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		b, err := json.Marshal(&channelmod.Job{Kind: channelmod.JobOptimize, Scenario: hot[i]})
		if err != nil {
			t.Fatal(err)
		}
		p, err := channelmod.PrepareJob(&channelmod.Job{Kind: channelmod.JobOptimize, Scenario: hot[i]})
		if err != nil {
			t.Fatal(err)
		}
		docs[i], addrs[i] = b, p.Hash
	}
	if addrs[0] == addrs[1] {
		t.Fatal("the two budgets share an address")
	}
	return docs, addrs
}

func problemsOf(rd *serveRound) []string {
	o := &outcome{}
	checkServeAnswers(o, rd, newJobBook())
	return o.problems
}

func TestServeCheckRejectsAnotherJobsAnswer(t *testing.T) {
	docs, addrs := hotPair(t)
	d := [2][32]byte{{1}, {2}}
	hot := func(a ...answer) opRecord { return opRecord{kind: opHot, answers: a} }
	good := &serveRound{open: []opRecord{
		hot(answer{job: docs[0], id: addrs[0], digest: d[0]}),
		hot(answer{job: docs[1], id: addrs[1], digest: d[1]}),
		hot(answer{job: docs[0], id: addrs[0], digest: d[0]}),
	}}
	if p := problemsOf(good); len(p) != 0 {
		t.Fatalf("true answers rejected: %v", p)
	}
	// The daemon answers the 0.8-budget job with the full-budget result,
	// address and all: the answer's address is not its job's.
	merged := &serveRound{open: []opRecord{
		hot(answer{job: docs[0], id: addrs[0], digest: d[0]}),
		hot(answer{job: docs[1], id: addrs[0], digest: d[0]}),
	}}
	if p := problemsOf(merged); len(p) != 1 || !strings.Contains(p[0], "is not the job's") {
		t.Errorf("another job's answer: problems %v", p)
	}
	// A replay that differs from the first answer to the same job.
	replay := &serveRound{open: []opRecord{
		hot(answer{job: docs[0], id: addrs[0], digest: d[0]}),
		hot(answer{job: docs[0], id: addrs[0], digest: d[1]}),
	}}
	if p := problemsOf(replay); len(p) != 1 || !strings.Contains(p[0], "differs from the first answer") {
		t.Errorf("changed replay: problems %v", p)
	}
	// An optimized design above its budget.
	job, err := decodeJob(docs[1])
	if err != nil {
		t.Fatal(err)
	}
	over := &serveRound{open: []opRecord{
		hot(answer{job: docs[1], id: addrs[1], digest: d[1], dpBar: 1.02 * job.Scenario.MaxPressureBar}),
	}}
	if p := problemsOf(over); len(p) != 1 || !strings.Contains(p[0], "above its") {
		t.Errorf("budget broken by 2%%: problems %v", p)
	}
}

// TestServeReferenceRejectsAnotherJobsResult has the daemon answer the
// full-budget job, under its own address, with the 0.8-budget job's
// result, which also keeps the full budget: only the fresh reference
// engine can tell.
func TestServeReferenceRejectsAnotherJobsResult(t *testing.T) {
	docs, addrs := hotPair(t)
	ctx := context.Background()
	wrong, err := channelmod.NewEngine(0).Run(ctx, mustDecode(t, docs[1]))
	if err != nil {
		t.Fatal(err)
	}
	body := wrong.JSON()
	body.Hash = addrs[0]
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(b) }))
	defer srv.Close()
	rd := &serveRound{client: newClient(srv.URL, 1)}
	defer rd.client.close()
	rec := opRecord{kind: opHot}
	keep(&rec, docs[0], b)
	rd.open = []opRecord{rec}
	o := &outcome{}
	book := newJobBook()
	checkServeAnswers(o, rd, book)
	if len(o.problems) != 0 {
		t.Fatalf("address and budget checks: %v", o.problems)
	}
	checkServeReference(ctx, o, rd, book)
	if len(o.problems) != 1 || !strings.Contains(o.problems[0], "differs from a fresh in-process engine: result.optimize.") {
		t.Fatalf("another job's result: problems %v", o.problems)
	}
}

func mustDecode(t *testing.T, doc []byte) *channelmod.Job {
	t.Helper()
	j, err := decodeJob(doc)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
