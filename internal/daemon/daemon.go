// Package daemon implements the chanmodd HTTP server: the job engine
// served over a small REST surface. Jobs are submitted, polled, fetched
// and streamed by content address; identical jobs — across clients and
// across time — cost one solve, because the daemon is a thin shell
// around an engine's content-addressed cache and singleflight layer.
//
// The package is separate from cmd/chanmodd so the server can also be
// embedded in-process (tests, examples/daemon) and driven over real
// HTTP without shelling out to a binary.
//
// Endpoints:
//
//	POST /v1/jobs             submit a Job JSON; returns {"id", "status"} immediately
//	GET  /v1/jobs/{id}        poll a submission's status
//	GET  /v1/jobs/{id}/events stream per-point completions (SSE; NDJSON with ?format=ndjson)
//	GET  /v1/results/{id}     fetch a cached result by content address (404 until done)
//	POST /v1/run              run a Job synchronously; X-Cache: hit|coalesced|miss
//	GET  /v1/stats            cache, queue-depth and solve-latency statistics
//	GET  /v1/metrics          full ops-metrics snapshot (per-endpoint latency histograms)
//	GET  /healthz             liveness probe
//
// The daemon admits work instead of queueing it unboundedly: each heavy
// endpoint class has a fixed number of execution slots plus a bounded
// accept queue, and a request that finds both full is shed with
// 429 Too Many Requests and a Retry-After estimate (see admission.go
// and DESIGN.md §15).
package daemon

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	channelmod "repro"
	"repro/internal/telemetry"
)

// maxJobBytes bounds a submitted job document.
const maxJobBytes = 8 << 20

// errDraining answers new work arriving during graceful shutdown.
var errDraining = fmt.Errorf("daemon is shutting down")

// errTooBusy answers a shed request (429).
func errTooBusy(what string) error {
	return fmt.Errorf("too many %s requests in flight; retry later", what)
}

// jobStatus is a submission's lifecycle state.
type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// jobState is the daemon-side record of one submitted content address.
type jobState struct {
	ID     string             `json:"id"`
	Kind   channelmod.JobKind `json:"kind"`
	Status jobStatus          `json:"status"`
	Error  string             `json:"error,omitempty"`
	// ResultURL is set once the result is fetchable.
	ResultURL string `json:"result_url,omitempty"`
	// EventsURL streams the job's per-point completions.
	EventsURL string `json:"events_url,omitempty"`

	// prep retains the canonical job so the events endpoint can replay
	// (or, after eviction, re-execute) it without the original body.
	// Oversized jobs are not retained (see retainable) so the registry
	// cannot pin maxTracked × maxJobBytes of job documents.
	prep *channelmod.PreparedJob
	// body is the SHA-256 of the latest request body that prepared prep:
	// the state's one key in the body index, while the index maps it to
	// this state.
	body [sha256.Size]byte
	// feed carries live point events while the submission executes; it
	// is dropped on completion (replays then come from the cache).
	feed *feed
}

// defaultMaxTracked bounds the submission registry: beyond it, the
// least-recently-completed (done/failed) states are pruned. States
// still queued or running are never dropped, so the registry can only
// exceed the bound while that many jobs are genuinely in flight.
const defaultMaxTracked = 1024

// maxRetainedJobBytes bounds the canonical job document a jobState
// retains for event replay; together with maxTracked it caps the
// registry's worst-case memory. Jobs beyond it still execute normally —
// their event stream is just not replayable after completion.
const maxRetainedJobBytes = 256 << 10

// retainable returns p when its canonical form is small enough to keep
// in the registry, nil otherwise.
func retainable(p *channelmod.PreparedJob) *channelmod.PreparedJob {
	if p.CanonicalSize > maxRetainedJobBytes {
		return nil
	}
	return p
}

// Options configures a Server beyond its engine.
type Options struct {
	// Limits is the admission-control configuration; zero fields take
	// defaults (see DefaultLimits).
	Limits Limits
	// MaxTracked bounds the submission registry (0 → 1024).
	MaxTracked int
}

// Server owns the engine and the submission registry.
type Server struct {
	eng *channelmod.Engine
	// baseCtx scopes background executions (async submissions detach
	// from their originating request) to the daemon's lifetime instead
	// of to nothing: when the process is done serving, in-flight solves
	// become cancellable instead of leaking.
	baseCtx context.Context

	limits     Limits
	runLim     *limiter
	submitLim  *limiter
	metrics    *opsMetrics
	maxTracked int

	mu    sync.Mutex
	jobs  map[string]*jobState
	order []string // pruning order: insertion order, completed moved to back on completion
	// bodies is the body index: the SHA-256 of a request body → the
	// tracked state it last prepared. Only states that retain their job
	// are indexed, each under one digest, and a state's digest leaves
	// with it, so the registry bounds the index.
	bodies map[[sha256.Size]byte]*jobState

	// Graceful drain (see Shutdown): draining rejects new work,
	// drainForce tells in-flight event streams to flush a terminal
	// message now, streams counts event streams that have not yet
	// written their terminal message.
	draining   atomic.Bool
	drainForce chan struct{}
	forceOnce  sync.Once
	streams    sync.WaitGroup

	submitted atomic.Uint64
	running   atomic.Int64
	done      atomic.Uint64
	failed    atomic.Uint64
	// reused counts request bodies answered from the body index, decoded
	// the ones that went to the JSON decoder.
	reused  atomic.Uint64
	decoded atomic.Uint64
}

// New returns a server over the given engine, scoped to the process
// lifetime, with default admission limits.
func New(eng *channelmod.Engine) *Server {
	return NewContext(context.Background(), eng)
}

// NewContext returns a server over the given engine whose background
// executions (async submissions, detached event replays) are scoped to
// ctx: cancelling it aborts solves that no completed request is waiting
// on. Pass the context that outlives graceful shutdown, not a
// per-request one.
func NewContext(ctx context.Context, eng *channelmod.Engine) *Server {
	return NewOptions(ctx, eng, Options{})
}

// NewOptions is NewContext with explicit admission limits and registry
// bounds.
func NewOptions(ctx context.Context, eng *channelmod.Engine, opts Options) *Server {
	limits := opts.Limits.withDefaults()
	maxTracked := opts.MaxTracked
	if maxTracked <= 0 {
		maxTracked = defaultMaxTracked
	}
	return &Server{
		eng:        eng,
		baseCtx:    ctx,
		limits:     limits,
		runLim:     newLimiter(limits.RunInflight, limits.RunQueue),
		submitLim:  newLimiter(limits.SubmitInflight, limits.SubmitQueue),
		metrics:    newOpsMetrics(),
		maxTracked: maxTracked,
		jobs:       make(map[string]*jobState),
		bodies:     make(map[[sha256.Size]byte]*jobState),
		drainForce: make(chan struct{}),
	}
}

// track registers a new state under s.mu and prunes the
// least-recently-completed entries beyond maxTracked.
func (s *Server) track(hash string, st *jobState) {
	if old, exists := s.jobs[hash]; exists {
		s.unindex(old)
	} else {
		s.order = append(s.order, hash)
	}
	st.EventsURL = "/v1/jobs/" + hash + "/events"
	s.jobs[hash] = st
	if len(s.jobs) <= s.maxTracked {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.maxTracked
	for _, h := range s.order {
		old, ok := s.jobs[h]
		if excess > 0 && ok && (old.Status == statusDone || old.Status == statusFailed) {
			s.unindex(old)
			delete(s.jobs, h)
			excess--
			continue
		}
		if ok {
			kept = append(kept, h)
		}
	}
	s.order = kept
}

// index records under s.mu that the body with digest sum prepared the
// tracked state st: the state's earlier digest leaves the index. A
// state that retains no job is never indexed.
func (s *Server) index(st *jobState, sum [sha256.Size]byte) {
	if st.prep == nil || s.bodies[sum] == st {
		return
	}
	s.unindex(st)
	st.body = sum
	s.bodies[sum] = st
}

// unindex removes a state's digest from the body index. Caller holds
// s.mu.
func (s *Server) unindex(st *jobState) {
	if s.bodies[st.body] == st {
		delete(s.bodies, st.body)
	}
}

// markCompleted moves a hash to the back of the pruning order. Without
// this, pruning selects by *insertion* order: under contention a job
// submitted early but finished last would be pruned the moment it
// completes — exactly the state its submitter is about to poll — while
// long-idle completed entries survived. Completion order makes the
// prune a least-recently-completed eviction. Caller holds s.mu.
func (s *Server) markCompleted(hash string) {
	for i, h := range s.order {
		if h == hash {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = hash
			return
		}
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.instrument("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("poll", s.handlePoll))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("events", s.handleEvents))
	mux.HandleFunc("GET /v1/results/{id}", s.instrument("result", s.handleResult))
	mux.HandleFunc("POST /v1/run", s.instrument("run", s.handleRun))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	return mux
}

// decodeJob reads the request body into a prepared job (canonical form
// + content address) and returns it with the body's SHA-256. The same
// bytes always decode and prepare to the same job, so a body the index
// knows gets the registry's retained job instead. Any other body must
// hold one JSON document and nothing but whitespace after it; it is
// decoded and prepared exactly once.
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request) (*channelmod.PreparedJob, [sha256.Size]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBytes))
	if err != nil {
		return nil, [sha256.Size]byte{}, fmt.Errorf("decode job: %w", err)
	}
	sum := sha256.Sum256(body)
	var p *channelmod.PreparedJob
	s.mu.Lock()
	if st := s.bodies[sum]; st != nil {
		p = st.prep
	}
	s.mu.Unlock()
	if p != nil {
		s.reused.Add(1)
		return p, sum, nil
	}
	s.decoded.Add(1)
	var job channelmod.Job
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		return nil, sum, fmt.Errorf("decode job: %w", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return nil, sum, fmt.Errorf("decode job: unexpected data after the job document at offset %d", len(body)-len(rest))
	}
	p, err = channelmod.PrepareJob(&job)
	return p, sum, err
}

// handleSubmit enqueues a job asynchronously and returns its content
// address for polling. Resubmitting a queued/running address — or a
// done one whose result is still cached — is idempotent; resubmitting a
// failed address, or a done one whose result the LRU has since evicted,
// re-executes it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	p, sum, err := s.decodeJob(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	if st, known := s.jobs[p.Hash]; known && st.Status != statusFailed {
		_, cached := s.eng.Lookup(p.Hash)
		if st.Status != statusDone || cached {
			s.index(st, sum)
			snapshot := *st
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, snapshot)
			return
		}
		// Done but evicted: fall through and recompute.
	}
	// Admission: a submission holds one backlog position from accept to
	// completion, so the queue bound caps the daemon's total async
	// backlog. Idempotent resubmissions above never get here.
	if !s.submitLim.admit() {
		s.mu.Unlock()
		s.shedWith429(w, s.submitLim, "submit")
		return
	}
	st := &jobState{ID: p.Hash, Kind: p.Job.Kind, Status: statusQueued, prep: retainable(p), feed: newFeed()}
	s.track(p.Hash, st)
	s.index(st, sum)
	snapshot := *st
	fd := st.feed
	s.mu.Unlock()
	s.submitted.Add(1)

	go s.executeAdmitted(p, fd)
	writeJSON(w, http.StatusAccepted, snapshot)
}

// executeAdmitted waits for a submit execution slot (the admission was
// already reserved by handleSubmit) and runs the submission.
func (s *Server) executeAdmitted(p *channelmod.PreparedJob, fd *feed) {
	release, ok := s.submitLim.wait(s.baseCtx)
	if !ok {
		// The daemon is gone before the queue drained.
		err := fmt.Errorf("daemon: shutting down before job %.12s left the accept queue", p.Hash)
		s.failed.Add(1)
		s.setStatus(p.Hash, statusFailed, err)
		fd.finish(eventError, errorPayload(err))
		s.dropFeed(p.Hash, fd)
		return
	}
	defer release()
	s.execute(p, fd)
}

// execute runs a submission to completion in the background, publishing
// per-point completions into the feed. The engine's singleflight layer
// guarantees that two states racing for the same address still cost one
// solve.
func (s *Server) execute(p *channelmod.PreparedJob, fd *feed) {
	s.setStatus(p.Hash, statusRunning, nil)
	s.running.Add(1)
	_, info, err := s.eng.RunStreamPrepared(s.baseCtx, p,
		func(ev channelmod.JobPointEvent) error {
			fd.appendPoint(ev.JSON())
			return nil
		})
	s.running.Add(-1)
	if err != nil {
		s.failed.Add(1)
		s.setStatus(p.Hash, statusFailed, err)
		fd.finish(eventError, errorPayload(err))
	} else {
		s.done.Add(1)
		s.setStatus(p.Hash, statusDone, nil)
		fd.finish(eventDone, donePayload(p.Hash, info))
	}
	s.dropFeed(p.Hash, fd)
}

// dropFeed detaches a completed submission's live feed: late readers
// replay through the cache instead, so the registry never pins a
// completed job's event log in memory.
func (s *Server) dropFeed(hash string, fd *feed) {
	s.mu.Lock()
	if st, ok := s.jobs[hash]; ok && st.feed == fd {
		st.feed = nil
	}
	s.mu.Unlock()
}

func (s *Server) setStatus(hash string, status jobStatus, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[hash]
	if !ok {
		return
	}
	// Never downgrade a completed job: when one of several callers
	// racing for the same address errors out (e.g. its request was
	// cancelled) after another succeeded, the successful, cached outcome
	// is the job's state.
	if st.Status == statusDone && status == statusFailed {
		return
	}
	st.Status = status
	// A re-executed address must not drag an earlier attempt's error (or
	// a stale result URL) along.
	st.Error = ""
	st.ResultURL = ""
	if err != nil {
		st.Error = err.Error()
	}
	if status == statusDone {
		st.ResultURL = "/v1/results/" + hash
	}
	if status == statusDone || status == statusFailed {
		s.markCompleted(hash)
	}
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.jobs[id]
	var snapshot jobState
	if ok {
		snapshot = *st
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, snapshot)
}

// handleResult serves a result straight from the content-addressed
// cache. 404 means "not (or no longer) cached" — poll the job, or
// resubmit.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.eng.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", id))
		return
	}
	writeJSON(w, http.StatusOK, res.JSON())
}

// handleRun executes a job synchronously and reports how it was served
// in the X-Cache header: "hit" (cache), "coalesced" (deduplicated onto a
// concurrent identical run) or "miss" (computed here).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	p, sum, err := s.decodeJob(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Admission: a cached address is a read and always served; anything
	// else needs a run slot (even a coalesced wait holds its caller's
	// goroutine, so it counts against the synchronous budget).
	if _, cached := s.eng.Lookup(p.Hash); !cached {
		if !s.runLim.admit() {
			s.shedWith429(w, s.runLim, "run")
			return
		}
		release, ok := s.runLim.wait(r.Context())
		if !ok {
			// Client gave up while queued; nothing to answer.
			return
		}
		defer release()
	}
	s.mu.Lock()
	st, known := s.jobs[p.Hash]
	if !known {
		st = &jobState{ID: p.Hash, Kind: p.Job.Kind, Status: statusRunning, prep: retainable(p)}
		s.track(p.Hash, st)
		s.submitted.Add(1)
	} else if st.prep == nil {
		st.prep = retainable(p)
	}
	s.index(st, sum)
	s.mu.Unlock()

	// The execution is detached from the request context: a
	// disconnecting client must not abort a solve that coalesced
	// followers are waiting on (and that will populate the cache either
	// way). The client simply stops reading; the job runs to completion.
	s.running.Add(1)
	res, info, err := s.eng.RunPrepared(context.WithoutCancel(r.Context()), p)
	s.running.Add(-1)
	if err != nil {
		s.failed.Add(1)
		s.setStatus(p.Hash, statusFailed, err)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.done.Add(1)
	s.setStatus(p.Hash, statusDone, nil)
	w.Header().Set("X-Cache", info.CacheString())
	writeJSON(w, http.StatusOK, res.JSON())
}

// statsResponse is the /v1/stats payload.
type statsResponse struct {
	Cache channelmod.EngineCacheStats `json:"cache"`
	Pool  poolStats                   `json:"pool"`
	Jobs  jobCounts                   `json:"jobs"`
	// Admission reports each limiter's occupancy and shed count.
	Admission map[string]admissionJSON `json:"admission"`
	// SolveLatency summarizes the engine's execution latency (cache
	// misses only); the full histogram is on /v1/metrics.
	SolveLatency telemetry.SnapshotJSON `json:"solve_latency"`
	Prepare      prepareCounts          `json:"prepare"`
}

type poolStats struct {
	// GOMAXPROCS bounds the machine-wide solve concurrency (the batch
	// layer's borrow quota).
	GOMAXPROCS int `json:"gomaxprocs"`
	// Running counts requests currently executing (or waiting on) a job.
	Running int64 `json:"running"`
}

type jobCounts struct {
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed"`
	Tracked   int    `json:"tracked"`
}

// prepareCounts says how job bodies became prepared jobs: Reused from
// the body index, or Decoded by the JSON decoder (successfully or not).
type prepareCounts struct {
	Reused  uint64 `json:"reused"`
	Decoded uint64 `json:"decoded"`
}

func (s *Server) prepareCounts() prepareCounts {
	return prepareCounts{Reused: s.reused.Load(), Decoded: s.decoded.Load()}
}

// jobCounts snapshots the submission counters (shared by /v1/stats and
// /v1/metrics).
func (s *Server) jobCounts() jobCounts {
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	return jobCounts{
		Submitted: s.submitted.Load(),
		Done:      s.done.Load(),
		Failed:    s.failed.Load(),
		Tracked:   tracked,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Cache: s.eng.Stats(),
		Pool: poolStats{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Running:    s.running.Load(),
		},
		Jobs: s.jobCounts(),
		Admission: map[string]admissionJSON{
			"run":    limiterJSON(s.runLim),
			"submit": limiterJSON(s.submitLim),
		},
		SolveLatency: s.eng.ExecLatency().JSON(),
		Prepare:      s.prepareCounts(),
	})
}

// Shutdown drains the daemon gracefully: new submissions and runs are
// refused with 503, and Shutdown blocks until every in-flight event
// stream has written its terminal message — or ctx expires, at which
// point streams are told to flush a terminal "shutdown" event
// immediately and Shutdown waits briefly for those flushes. Call it
// before (not instead of) http.Server.Shutdown: this settles the
// daemon's streams; that settles the connections.
func (s *Server) Shutdown(ctx context.Context) error {
	// The mutex orders the draining flip against trackStream: once it is
	// set, no new stream can register, so the WaitGroup only counts down.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Deadline: force streams to flush a terminal event now, then give
	// the flushes a moment to land.
	s.forceOnce.Do(func() { close(s.drainForce) })
	select {
	case <-drained:
		return nil
	case <-time.After(time.Second):
		return fmt.Errorf("daemon: shutdown: event streams still unflushed: %w", ctx.Err())
	}
}

// trackStream registers an in-flight event stream with the drain
// accounting. live=false means the daemon is draining and the caller
// must answer with an immediate terminal message instead of streaming.
// The returned finish is idempotent and must be called once the
// stream's terminal message is written (or the stream abandoned).
func (s *Server) trackStream() (finish func(), live bool) {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, false
	}
	s.streams.Add(1)
	s.mu.Unlock()
	var once sync.Once
	return func() { once.Do(s.streams.Done) }, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to send.
		fmt.Fprintf(os.Stderr, "chanmodd: encode response: %v\n", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
