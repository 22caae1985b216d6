package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	channelmod "repro"
	"repro/internal/daemon"
	"repro/internal/genscen"
	"repro/internal/genscen/props"
)

// The serve workload drives chanmodd's handler from internal/daemon,
// with default limits and the default 128-entry cache, over a loopback
// listener. Solves are cheap here, so decode, admission, canonicalize
// and hash, cache and singleflight, encode and streaming do most of the
// work. Reuse is of whole results, unlike design, where sub-jobs are
// reused.
var serveWorkload = &workload{
	name:         "serve",
	roundSeconds: 6,
	minRounds:    3,
	owns:         []string{"daemon", "engine", "batch", "client", "go", "proc"},
	run:          runServe,
}

// Traffic shape of one round. The open loop runs at serveRate for
// serveOpenOps operations; the closed loop runs serveClosedOps as fast
// as nproc clients can.
const (
	// serveRate is about a tenth of what the closed loop sustains on the
	// reference machine (1 500-2 000/s from 2 clients), so open-loop
	// operations seldom queue behind each other. It is assumed, not taken
	// from a recorded deployment.
	serveRate = 150 // operations per second
	// serveOpenOps gives three rounds 990 latencies, so op_tail_ms is
	// their p95, with 50 operations beyond it: a p99 over a larger sample
	// moved with every GC cycle and scheduling hiccup on the reference
	// machine.
	serveOpenOps   = 330
	serveClosedOps = 5000
	// servePool is the number of genscen scenarios the misses draw from,
	// all with two channel columns: a solve's cost grows with the
	// columns, and a wide pool of one width keeps the mean cost of an
	// operation, and the size of what the cache retains, nearly the same
	// for every seed.
	servePool     = 96
	serveChannels = 2
	// The popular designs: serveHotPlans genscen floorplans, each at
	// serveHotBudgets pressure budgets, warmed in set-up. They come from
	// the fixed genscen seeds from serveHotSeed on, not from the run's
	// seed, so a cache hit costs the same on every seed.
	serveHotPlans   = 8
	serveHotBudgets = 2
	serveHot        = serveHotPlans * serveHotBudgets
	serveHotSeed    = 1
	// serveMaxGap bounds the hot runs between two requests for the same
	// popular design: a design that waited this long is requested next,
	// the longest-waiting first. Operations add about one new cache entry
	// each, 6 for a resubmission; this bound keeps every popular design
	// inside the 128-entry LRU even through a burst of them, so a hot run
	// is always a hit and the median stays inside one class of operation.
	serveMaxGap = 12
	// serveZipf is the popularity skew over the popular designs (assumed).
	serveZipf = 0.8
)

// Operation kinds of the serve mix and their shares in percent. They
// start from loadgen's DefaultMix (run 5 : submit 3 : resubmit 1 :
// subscribe 2) with its 35% revisit rate: sync hits 16%, sync misses
// 29.5%, async cycles 45.5% (an async cycle here both follows the event
// stream, as loadgen's subscribers do, and polls and fetches, as its
// submitters do) and resubmissions 9%. The steadiness rule moves one
// thing: the median must lie inside one class, so the hits are raised to
// 70%, and the other kinds keep loadgen's proportions among the
// remaining 30% (10.5 : 16.2 : 3.2, rounded).
const (
	opHot      = iota // sync run of a popular design: a cache hit
	opCold            // sync run of a new uniform-width evaluation: a miss
	opAsync           // submit a new flow sweep, follow its events, poll once, fetch the result
	opResubmit        // submit a sweep and a widened overlapping one, follow and fetch the wide one
)

var (
	opNames  = []string{"run-hot", "run-cold", "async", "resubmit"}
	opShares = []int{70, 11, 16, 3}
)

// A resubmission's sweeps: the narrow one and the wide one that shares
// its points.
const (
	resubmitNarrow = 3
	resubmitWide   = 4
)

type serveOp struct {
	kind   int
	body   []byte // the run job, or the (narrow) sweep
	wide   []byte // resubmit: the widened sweep
	ndjson bool   // event framing: NDJSON instead of SSE
}

type servePlan struct {
	hot    [][]byte // the popular designs, in warm-up order
	open   []serveOp
	closed []serveOp
}

// genscenPlan returns the scenario genscen draws from seed, trimmed to a
// steady design problem, and whether it has serveChannels channel
// columns.
func genscenPlan(seed int64) (channelmod.Scenario, bool, error) {
	f, err := genscen.Generate(seed)
	if err != nil {
		return channelmod.Scenario{}, false, err
	}
	spec, err := f.Spec()
	if err != nil {
		return channelmod.Scenario{}, false, err
	}
	f.Trace, f.Runtime = nil, nil
	f.Solver = "lbfgsb"
	f.EqualPressure = false
	return *f, len(spec.Channels) == serveChannels, nil
}

// hotDesigns returns the popular designs: optimize jobs over the first
// serveHotPlans two-column genscen floorplans from serveHotSeed on, each
// at its generated pressure budget and at 0.8 of it (still above the
// maximum-width drop, so feasible). They keep genscen's segment and
// outer-iteration counts: cut to one outer iteration, the augmented
// Lagrangian ends infeasible on most of them.
func hotDesigns(plans int) ([]channelmod.Scenario, error) {
	var out []channelmod.Scenario
	for seed := int64(serveHotSeed); len(out) < plans*serveHotBudgets; seed++ {
		s, ok, err := genscenPlan(seed)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for b := 0; b < serveHotBudgets; b++ {
			t := s
			t.MaxPressureBar = s.MaxPressureBar * (1 - 0.2*float64(b))
			out = append(out, t)
		}
	}
	return out, nil
}

// buildServePlan generates one round's traffic from the seed. Popular
// designs are optimize jobs over fixed genscen floorplans; the misses
// are uniform-width evaluations (one model solve) over a seeded pool of
// genscen floorplans, so every miss is a real but cheap solve.
func buildServePlan(seed int64, probe bool) (*servePlan, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]channelmod.Scenario, 0, servePool)
	for len(pool) < servePool {
		s, ok, err := genscenPlan(rng.Int63n(1 << 40))
		if err != nil {
			return nil, err
		}
		if ok {
			pool = append(pool, s)
		}
	}
	marshal := func(j *channelmod.Job) ([]byte, error) {
		b, err := json.Marshal(j)
		if err != nil {
			return nil, fmt.Errorf("serve plan: %w", err)
		}
		return b, nil
	}
	nHotPlans, nOpen, nClosed := serveHotPlans, serveOpenOps, serveClosedOps
	if probe {
		nHotPlans, nOpen, nClosed = 4, 150, 150
	}
	hot, err := hotDesigns(nHotPlans)
	if err != nil {
		return nil, err
	}
	nHot := len(hot)
	plan := &servePlan{}
	for _, s := range hot {
		b, err := marshal(&channelmod.Job{Kind: channelmod.JobOptimize, Scenario: s})
		if err != nil {
			return nil, err
		}
		plan.hot = append(plan.hot, b)
	}
	// The seed orders the popular designs' popularity.
	rng.Shuffle(len(plan.hot), func(i, j int) { plan.hot[i], plan.hot[j] = plan.hot[j], plan.hot[i] })
	// Zipf-like popularity over the popular designs, with every design
	// requested at least once per serveMaxGap hot runs.
	weights := make([]float64, nHot)
	var wsum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), serveZipf)
		wsum += weights[i]
	}
	lastHot := make([]int, nHot)
	hotRuns := 0
	pickHot := func() int {
		hotRuns++
		due := 0
		for i, l := range lastHot {
			if l < lastHot[due] {
				due = i
			}
		}
		i := due
		if hotRuns-lastHot[due] < serveMaxGap {
			x := rng.Float64() * wsum
			for i = 0; i < nHot-1 && x >= weights[i]; i++ {
				x -= weights[i]
			}
		}
		lastHot[i] = hotRuns
		return i
	}
	// Every cold run and every sweep point is new: its coordinate comes
	// from a counter, so no two operations share a miss by accident.
	fresh := 0
	next := func() float64 { fresh++; return float64(fresh) }
	coldJob := func() ([]byte, error) {
		s := pool[rng.Intn(servePool)]
		s.Segments, s.OuterIterations = 1, 1
		lo, hi := s.BoundsUM[0], s.BoundsUM[1]
		w := lo + (hi-lo)*math.Mod(next()*0.6180339887498949, 1)
		return marshal(&channelmod.Job{Kind: channelmod.JobOptimize, Scenario: s,
			Optimize: &channelmod.OptimizeJobSpec{Variant: "baseline", WidthUM: w}})
	}
	// Sweeps, the slowest operations and so the ones the tail falls on,
	// run over seeded Test-B draws: the seed changes their loads but not
	// their size, so the tail does not hinge on the costliest floorplan a
	// seed happens to draw.
	sweepScenario := func() channelmod.Scenario {
		seed := rng.Int63n(1 << 30)
		return channelmod.Scenario{Preset: "testB", Seed: &seed}
	}
	sweepJob := func(s channelmod.Scenario, flows []float64) ([]byte, error) {
		s.Segments, s.OuterIterations = 1, 1
		return marshal(&channelmod.Job{Kind: channelmod.JobSweep, Scenario: s,
			Sweep: &channelmod.SweepJobSpec{Kind: "flow", FlowMLMin: flows}})
	}
	flows := func(n int) []float64 {
		base := 0.3 + 0.001*next()
		out := make([]float64, n)
		for i := range out {
			out[i] = base + 0.1*float64(i)
		}
		return out
	}
	kindOf := func(x int) int {
		for k, share := range opShares {
			if x < share {
				return k
			}
			x -= share
		}
		return len(opShares) - 1
	}
	draw := func() (serveOp, error) {
		var (
			op  serveOp
			err error
		)
		switch op.kind = kindOf(rng.Intn(100)); op.kind {
		case opHot:
			op.body = plan.hot[pickHot()]
		case opCold:
			op.body, err = coldJob()
		case opAsync:
			op.body, err = sweepJob(sweepScenario(), flows(3))
		case opResubmit:
			s := sweepScenario()
			fl := flows(resubmitWide)
			if op.body, err = sweepJob(s, fl[:resubmitNarrow]); err == nil {
				op.wide, err = sweepJob(s, fl)
			}
		}
		op.ndjson = rng.Intn(2) == 0
		return op, err
	}
	for i := 0; i < nOpen+nClosed; i++ {
		op, err := draw()
		if err != nil {
			return nil, err
		}
		if i < nOpen {
			plan.open = append(plan.open, op)
		} else {
			plan.closed = append(plan.closed, op)
		}
	}
	return plan, nil
}

// answer is one result a client received for one job document.
type answer struct {
	job    []byte // the job document, shared with the plan
	id     string // the address the daemon reported
	digest [32]byte
	// dpBar is the highest channel pressure drop of an optimize answer,
	// in bar; zero for other answers.
	dpBar float64
}

// opRecord is what one operation measured.
type opRecord struct {
	kind    int
	err     error
	latency time.Duration // from due or send time to done
	late    time.Duration // open loop: send time minus due time
	// done is when the last answer was read; decoding and checking it
	// happen after.
	done time.Time
	// Per-request client latencies, for the daemon layer's figures.
	run     time.Duration
	hit     bool
	submit  time.Duration
	stream  time.Duration // submit to terminal event
	result  time.Duration
	answers []answer
	// rowsOK is false when the streamed point rows did not reassemble
	// into the result's rows.
	rowsOK   bool
	rowsDiff string
}

// serveRound is one round's server and answers.
type serveRound struct {
	index  int
	plan   *servePlan
	eng    *channelmod.Engine
	srv    *daemon.Server
	http   *http.Server
	served chan error
	client *client
	warm   []answer
	open   []opRecord
	closed []opRecord
}

func runServe(ctx context.Context, cfg runCfg) (*outcome, error) {
	o := &outcome{}
	procs := runtime.GOMAXPROCS(0)
	var work procDelta
	var lateness []time.Duration
	var last *serveRound
	book := newJobBook()
	for r := 0; r < cfg.rounds; r++ {
		rd, err := serveSetup(ctx, cfg, o, r)
		if err != nil {
			return nil, err
		}
		p0 := readProc()
		rd.open = runOpenLoop(ctx, cfg.tr, rd, procs)
		start := time.Now()
		rd.closed = runClosedLoop(ctx, cfg.tr, rd, procs)
		o.closedWall += time.Since(start)
		work.add(p0.to(readProc()))

		lateness = append(lateness, tally(o, r, "open-loop", rd.open)...)
		tally(o, r, "closed-loop", rd.closed)
		checkServeAnswers(o, rd, book)
		if r < cfg.rounds-1 {
			if err := rd.stop(); err != nil {
				return nil, err
			}
		}
		last = rd
	}

	if tr := cfg.tr; tr != nil {
		recordProcMetrics(tr, work)
		if err := daemonLayer(ctx, tr, last, lateness); err != nil {
			return nil, err
		}
		hot := make([]planJob, len(last.plan.hot))
		for i, b := range last.plan.hot {
			hot[i] = planJob{label: fmt.Sprintf("hot%d", i), body: b}
		}
		if err := engineLayer(ctx, tr, last.eng, hot); err != nil {
			return nil, err
		}
	}
	checkServeReference(ctx, o, last, book)
	// The program's share of the live heap: the engine cache and the
	// daemon registry, read before and after the daemon stops.
	last.plan, last.warm, last.open, last.closed = nil, nil, nil, nil
	var err error
	o.retained, err = programHeap(func() error {
		err := last.stop()
		last.eng, last.srv, last.client = nil, nil, nil
		return err
	})
	return o, err
}

// tally counts a phase's operations into the outcome: an operation that
// got a 429, a 5xx, a transport error or a failed job counts as failed.
// Open-loop operations give the latencies, closed-loop ones the
// throughput. It returns the open loop's generator lateness.
func tally(o *outcome, round int, phase string, recs []opRecord) []time.Duration {
	var late []time.Duration
	for _, rec := range recs {
		o.attempted++
		if rec.err != nil {
			o.fail("serve round %d %s %s: %v", round, phase, opNames[rec.kind], rec.err)
			continue
		}
		if phase == "open-loop" {
			o.latencies = append(o.latencies, rec.latency)
			late = append(late, rec.late)
		} else {
			o.closedOps++
		}
	}
	return late
}

// serveSetup starts a fresh daemon on a loopback listener and warms the
// popular designs through POST /v1/run.
func serveSetup(ctx context.Context, cfg runCfg, o *outcome, r int) (*serveRound, error) {
	start := time.Now()
	plan, err := buildServePlan(cfg.seed, cfg.probe)
	if err != nil {
		return nil, err
	}
	eng := channelmod.NewEngine(0)
	srv := daemon.NewOptions(ctx, eng, daemon.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	rd := &serveRound{
		index:  r,
		plan:   plan,
		eng:    eng,
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: newClient("http://"+ln.Addr().String(), runtime.GOMAXPROCS(0)),
	}
	go func() { rd.served <- rd.http.Serve(ln) }()
	for i, b := range plan.hot {
		rec := opRecord{kind: opHot}
		rd.client.run(ctx, cfg.tr, nil, -1-i, b, &rec)
		if rec.err != nil {
			_ = rd.stop()
			return nil, fmt.Errorf("serve set-up: warm popular design %d: %w", i, rec.err)
		}
		rd.warm = append(rd.warm, rec.answers...)
	}
	o.setups = append(o.setups, time.Since(start))
	return rd, nil
}

// stop drains the daemon, closes the listener and waits for the server
// goroutine to return.
func (rd *serveRound) stop() error {
	if rd.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := rd.srv.Shutdown(ctx)
	herr := rd.http.Shutdown(ctx)
	serr := <-rd.served
	rd.client.close()
	rd.http = nil
	if errors.Is(serr, http.ErrServerClosed) {
		serr = nil
	}
	if err := errors.Join(derr, herr, serr); err != nil {
		return fmt.Errorf("serve: stop daemon: %w", err)
	}
	return nil
}

// runOpenLoop issues the open-loop operations at serveRate from nproc
// clients. Operation i is due at i/serveRate after the start. When every
// client was still busy at that time, the operation's latency runs from
// its due time, so a stall also charges the operations queued behind it.
// When a client was already waiting for it, the latency runs from the
// moment it was sent: timer wake-ups here run 0.5-1 ms late, longer than
// a cache hit takes, and that is the generator's error, not the
// system's. How late the generator ran is reported either way.
func runOpenLoop(ctx context.Context, tr *tracer, rd *serveRound, clients int) []opRecord {
	ops := rd.plan.open
	recs := make([]opRecord, len(ops))
	period := time.Second / serveRate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				waited := time.Now().Before(due)
				if wait := time.Until(due); wait > 0 {
					timer := time.NewTimer(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
					}
				}
				sent := time.Now()
				rec := &recs[i]
				rec.late = sent.Sub(due)
				rd.do(ctx, tr, rd.index*len(ops)+i, ops[i], rec)
				if waited {
					rec.latency = rec.done.Sub(sent)
				} else {
					rec.latency = rec.done.Sub(due)
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

// runClosedLoop runs the closed-loop operations from nproc clients, each
// sending its next operation as soon as the previous one completed.
func runClosedLoop(ctx context.Context, tr *tracer, rd *serveRound, clients int) []opRecord {
	ops := rd.plan.closed
	recs := make([]opRecord, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	base := rd.index*len(ops) + 1<<20
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				start := time.Now()
				rd.do(ctx, tr, base+i, ops[i], &recs[i])
				recs[i].latency = recs[i].done.Sub(start)
			}
		}()
	}
	wg.Wait()
	return recs
}

// do runs one client interaction.
func (rd *serveRound) do(ctx context.Context, tr *tracer, id int, op serveOp, rec *opRecord) {
	rec.kind = op.kind
	root := tr.start("client.op", nil, id)
	defer root.end()
	defer func() {
		if rec.done.IsZero() {
			rec.done = time.Now() // failed before its last answer
		}
	}()
	c := rd.client
	if op.kind == opHot || op.kind == opCold {
		c.run(ctx, tr, root, id, op.body, rec)
		return
	}
	c.cycle(ctx, tr, root, id, op, rec)
}

// client is the benchmark's HTTP client: at most nproc connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string, conns int) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: t}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, strings.TrimSpace(e.body))
}

// call sends one request and reads the whole answer.
func (c *client) call(ctx context.Context, method, path string, body []byte) ([]byte, http.Header, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, nil, &httpError{status: resp.StatusCode, body: string(b)}
	}
	return b, resp.Header, nil
}

// run is one synchronous POST /v1/run.
func (c *client) run(ctx context.Context, tr *tracer, parent *span, id int, body []byte, rec *opRecord) {
	sp := tr.start("daemon.run", parent, id)
	start := time.Now()
	b, h, err := c.call(ctx, http.MethodPost, "/v1/run", body)
	rec.done = time.Now()
	rec.run = rec.done.Sub(start)
	sp.end()
	if err != nil {
		rec.err = fmt.Errorf("run: %w", err)
		return
	}
	rec.hit = h.Get("X-Cache") == "hit"
	keep(rec, body, b)
}

// cycle is an async submit, one follow of the event stream to its
// terminal message, one poll, and one result fetch; a resubmit first
// submits the narrow sweep and then the widened one it overlaps.
func (c *client) cycle(ctx context.Context, tr *tracer, parent *span, id int, op serveOp, rec *opRecord) {
	body := op.body
	start := time.Now()
	if op.kind == opResubmit {
		if _, err := c.submit(ctx, tr, parent, id, op.body); err != nil {
			rec.err = err
			return
		}
		body = op.wide
	}
	jobID, err := c.submit(ctx, tr, parent, id, body)
	rec.submit = time.Since(start)
	if err != nil {
		rec.err = err
		return
	}
	sp := tr.start("daemon.stream", parent, id)
	rows, err := c.follow(ctx, jobID, op.ndjson)
	sp.end()
	rec.stream = time.Since(start)
	if err != nil {
		rec.err = fmt.Errorf("events %.12s: %w", jobID, err)
		return
	}
	if op.kind == opAsync {
		sp := tr.start("daemon.poll", parent, id)
		b, _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil)
		sp.end()
		if err != nil {
			rec.err = fmt.Errorf("poll %.12s: %w", jobID, err)
			return
		}
		var st struct{ Status string }
		if err := json.Unmarshal(b, &st); err != nil || st.Status != "done" {
			rec.err = fmt.Errorf("poll %.12s after the terminal event: status %q (%v)", jobID, st.Status, err)
			return
		}
	}
	sp = tr.start("daemon.result", parent, id)
	t := time.Now()
	b, _, err := c.call(ctx, http.MethodGet, "/v1/results/"+jobID, nil)
	rec.done = time.Now()
	rec.result = rec.done.Sub(t)
	sp.end()
	if err != nil {
		rec.err = fmt.Errorf("result %.12s: %w", jobID, err)
		return
	}
	res := keep(rec, body, b)
	if res == nil {
		return
	}
	rec.rowsOK, rec.rowsDiff = true, ""
	var want any = []any{}
	if res.Sweep != nil {
		want = toAny(res.Sweep.Rows)
	}
	if d := firstDiff(rows, want, "rows"); d != "" {
		rec.rowsOK, rec.rowsDiff = false, d
	}
}

func (c *client) submit(ctx context.Context, tr *tracer, parent *span, id int, body []byte) (string, error) {
	sp := tr.start("daemon.submit", parent, id)
	b, _, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	sp.end()
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	var st struct{ ID string }
	if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("submit: no job id in %q", b)
	}
	return st.ID, nil
}

// follow reads a job's event stream to its terminal message and returns
// the streamed sweep rows in point order.
func (c *client) follow(ctx context.Context, id string, ndjson bool) ([]any, error) {
	path := "/v1/jobs/" + id + "/events"
	if ndjson {
		path += "?format=ndjson"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, &httpError{status: resp.StatusCode, body: string(b)}
	}
	rows := []any{}
	point := func(payload []byte) error {
		var ev channelmod.JobPointEventJSON
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("point event: %w", err)
		}
		if ev.Index != len(rows) || ev.Sweep == nil {
			return fmt.Errorf("point event %d/%d out of order or without a sweep row", ev.Index, ev.Total)
		}
		rows = append(rows, toAny(ev.Sweep))
		return nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		var name string
		var payload []byte
		if ndjson {
			var tag struct{ Type string }
			if err := json.Unmarshal(line, &tag); err != nil {
				return nil, fmt.Errorf("ndjson line: %w", err)
			}
			name, payload = tag.Type, line
		} else {
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = string(line[len("event: "):])
				continue
			case bytes.HasPrefix(line, []byte("data: ")):
				name, payload = event, line[len("data: "):]
			default:
				continue
			}
		}
		switch name {
		case "point":
			if err := point(payload); err != nil {
				return nil, err
			}
		case "done":
			io.Copy(io.Discard, resp.Body)
			return rows, nil
		case "error":
			return nil, fmt.Errorf("job failed: %s", payload)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream ended without a terminal message")
}

// keep decodes an answer and records, with the job document it answers,
// the address it reports, the digest of its canonical encoding and an
// optimize answer's highest pressure drop. Only these are kept, so what
// the client holds stays small next to what the program retains.
func keep(rec *opRecord, job, body []byte) *channelmod.JobResultJSON {
	var res channelmod.JobResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		rec.err = fmt.Errorf("decode result: %w", err)
		return nil
	}
	canon, err := json.Marshal(&res)
	if err != nil {
		rec.err = fmt.Errorf("encode result: %w", err)
		return nil
	}
	a := answer{job: job, id: res.Hash, digest: sha256.Sum256(canon)}
	if res.Optimize != nil {
		for _, dp := range res.Optimize.PressureDropsBar {
			a.dpBar = math.Max(a.dpBar, dp)
		}
	}
	rec.answers = append(rec.answers, a)
	return &res
}

// daemonLayer records the daemon's per-request figures (client-side
// medians by request kind), the server's own /v1/run median from
// GET /v1/metrics, and the open-loop generator's lateness.
func daemonLayer(ctx context.Context, tr *tracer, rd *serveRound, lateness []time.Duration) error {
	var hit, miss, submit, stream, result []time.Duration
	for _, recs := range [][]opRecord{rd.open, rd.closed} {
		for _, rec := range recs {
			if rec.err != nil {
				continue
			}
			switch rec.kind {
			case opHot, opCold:
				if rec.hit {
					hit = append(hit, rec.run)
				} else {
					miss = append(miss, rec.run)
				}
			default:
				submit = append(submit, rec.submit)
				stream = append(stream, rec.stream)
				result = append(result, rec.result)
			}
		}
	}
	msOf := func(ds []time.Duration) float64 { return ms(medianDuration(ds)) }
	tr.set("daemon.run_hit_ms", msOf(hit))
	tr.set("daemon.run_miss_ms", msOf(miss))
	tr.set("daemon.submit_ms", msOf(submit))
	tr.set("daemon.stream_ms", msOf(stream))
	tr.set("daemon.result_ms", msOf(result))
	b, _, err := rd.client.call(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return fmt.Errorf("serve: metrics: %w", err)
	}
	var m struct {
		Endpoints map[string]struct {
			Latency struct {
				P50Ms float64 `json:"p50_ms"`
			} `json:"latency"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("serve: metrics: %w", err)
	}
	tr.set("daemon.server_run_ms", m.Endpoints["run"].Latency.P50Ms)
	lat := sortedMS(lateness)
	tr.set("client.late_p99_ms", percentile(lat, 99))
	return nil
}

// jobRecord is what the checks know about one job document, over all
// rounds.
type jobRecord struct {
	job  []byte
	addr string // PrepareJob's address for the document
	// budget is an optimized design's pressure budget in bar, else 0.
	budget float64
	// first is the digest of the first answer any operation got, and
	// firstOp names that operation.
	first   [32]byte
	firstOp string
}

// jobBook files answers by the job document they answer, not by the
// address the daemon reported, so a daemon that answered one job with
// another job's result cannot pass.
type jobBook struct {
	byDoc map[[32]byte]*jobRecord
	order []*jobRecord
}

func newJobBook() *jobBook { return &jobBook{byDoc: make(map[[32]byte]*jobRecord)} }

// record returns the document's record, preparing the job the first
// time it is seen.
func (b *jobBook) record(job []byte) (*jobRecord, bool, error) {
	key := sha256.Sum256(job)
	if jr, ok := b.byDoc[key]; ok {
		return jr, false, nil
	}
	j, err := decodeJob(job)
	if err != nil {
		return nil, false, err
	}
	p, err := channelmod.PrepareJob(j)
	if err != nil {
		return nil, false, fmt.Errorf("prepare: %w", err)
	}
	jr := &jobRecord{job: job, addr: p.Hash}
	if c := p.Job; c.Kind == channelmod.JobOptimize && c.Optimize != nil && c.Optimize.Variant == "modulation" {
		jr.budget = c.Scenario.MaxPressureBar
	}
	b.byDoc[key] = jr
	b.order = append(b.order, jr)
	return jr, true, nil
}

// checkServeAnswers checks a round's answers: each answer's address is
// its job's, an optimized design keeps its pressure budget, every answer
// to one job equals the first answer any round got for it (cache-hit
// replays included), and every async cycle's streamed rows reassembled
// into its result's rows.
func checkServeAnswers(o *outcome, rd *serveRound, book *jobBook) {
	tol := props.Default()
	check := func(phase string, i int, rec *opRecord) {
		if rec.err != nil {
			return
		}
		what := fmt.Sprintf("serve round %d %s op %d %s", rd.index, phase, i, opNames[rec.kind])
		if (rec.kind == opAsync || rec.kind == opResubmit) && !rec.rowsOK {
			o.problem("%s: streamed point rows do not reassemble into the result rows: %s", what, rec.rowsDiff)
		}
		for _, a := range rec.answers {
			jr, isNew, err := book.record(a.job)
			if err != nil {
				o.problem("%s: %v", what, err)
				continue
			}
			if a.id != jr.addr {
				o.problem("%s: answer address %.12s is not the job's %.12s", what, a.id, jr.addr)
			}
			if jr.budget > 0 && a.dpBar > jr.budget*(1+tol.FeasibilityRel) {
				o.problem("%s: job %.12s: ΔP %.6g bar above its %.6g bar budget", what, jr.addr, a.dpBar, jr.budget)
			}
			if isNew {
				jr.first, jr.firstOp = a.digest, what
			} else if a.digest != jr.first {
				o.problem("%s: answer to job %.12s differs from the first answer to it (%s)", what, jr.addr, jr.firstOp)
			}
		}
	}
	for i := range rd.warm {
		check("set-up", i, &opRecord{kind: opHot, answers: rd.warm[i : i+1]})
	}
	for i := range rd.open {
		check("open-loop", i, &rd.open[i])
	}
	for i := range rd.closed {
		check("closed-loop", i, &rd.closed[i])
	}
}

// checkServeReference runs every answered job document once on a fresh
// in-process engine, which shares no cache entry with the daemon or with
// the other documents, and checks that the daemon's first answer to it
// (which every later answer equals) decodes to the same result. When it
// does not, it asks the daemon again and names the first differing field.
func checkServeReference(ctx context.Context, o *outcome, rd *serveRound, book *jobBook) {
	for _, jr := range book.order {
		job, err := decodeJob(jr.job)
		if err != nil {
			o.problem("serve job %.12s: %v", jr.addr, err)
			continue
		}
		res, err := channelmod.NewEngine(0).Run(ctx, job)
		if err != nil {
			o.problem("serve job %.12s: reference engine: %v", jr.addr, err)
			continue
		}
		want := res.JSON()
		b, err := json.Marshal(want)
		if err != nil {
			o.problem("serve job %.12s: encode reference: %v", jr.addr, err)
			continue
		}
		if sha256.Sum256(b) == jr.first {
			continue
		}
		detail := "a fresh answer matches, the recorded one did not"
		if body, _, err := rd.client.call(ctx, http.MethodPost, "/v1/run", jr.job); err != nil {
			detail = fmt.Sprintf("asking again: %v", err)
		} else {
			var again channelmod.JobResultJSON
			if err := json.Unmarshal(body, &again); err != nil {
				detail = fmt.Sprintf("asking again: %v", err)
			} else if d := firstDiff(toAny(&again), toAny(want), "result"); d != "" {
				detail = d
			}
		}
		o.problem("serve job %.12s (%s): daemon answer differs from a fresh in-process engine: %s", jr.addr, jr.firstOp, detail)
	}
}

// toAny round-trips a value through JSON into generic maps and slices.
func toAny(v any) any {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<unencodable: %v>", err)
	}
	var out any
	if err := json.Unmarshal(b, &out); err != nil {
		return fmt.Sprintf("<undecodable: %v>", err)
	}
	return out
}

// firstDiff returns the path and values of the first field where a and
// b differ, or "" when they are equal.
func firstDiff(a, b any, path string) string {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: object vs %T", path, b)
		}
		for _, k := range sortedKeys(av) {
			if d := firstDiff(av[k], bv[k], path+"."+k); d != "" {
				return d
			}
		}
		for _, k := range sortedKeys(bv) {
			if _, ok := av[k]; !ok {
				return fmt.Sprintf("%s.%s: missing vs %v", path, k, bv[k])
			}
		}
		return ""
	case []any:
		bv, ok := b.([]any)
		if !ok {
			return fmt.Sprintf("%s: array vs %T", path, b)
		}
		if len(av) != len(bv) {
			return fmt.Sprintf("%s: %d elements vs %d", path, len(av), len(bv))
		}
		for i := range av {
			if d := firstDiff(av[i], bv[i], fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
		return ""
	default:
		if a != b {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
		return ""
	}
}
