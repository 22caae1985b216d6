package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/telemetry"
)

// DefaultCacheEntries is the default capacity of an Engine's result
// cache.
const DefaultCacheEntries = 128

// Engine executes Jobs through the shared pipeline and fronts them with
// a content-addressed LRU result cache plus singleflight deduplication:
// concurrent submissions of the same canonical job cost exactly one
// execution, and repeated submissions are served from the cache
// bit-identically (the engine returns the same immutable *Result).
//
// An Engine is safe for concurrent use. All heavy lifting inside an
// execution fans out on the machine-wide bounded worker pool of package
// batch, so any number of concurrent jobs degrade gracefully instead of
// oversubscribing the CPUs.
type Engine struct {
	cache    *lruCache
	inflight inflightGroup

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64

	// execLatency records wall-clock durations of real executions (cache
	// misses) — the solve-latency distribution the daemon's /v1/stats and
	// /v1/metrics surface. Hits and coalesced waits are not recorded:
	// they measure the cache, not the solver.
	execLatency *telemetry.Histogram
}

// New returns an Engine with the given result-cache capacity
// (entries < 1 selects DefaultCacheEntries).
func New(cacheEntries int) *Engine {
	if cacheEntries < 1 {
		cacheEntries = DefaultCacheEntries
	}
	return &Engine{
		cache:       newLRUCache(cacheEntries),
		inflight:    inflightGroup{calls: make(map[string]*inflightCall)},
		execLatency: telemetry.NewHistogram(nil),
	}
}

// Info describes how a Run was served.
type Info struct {
	// Hash is the job's content address.
	Hash string `json:"hash"`
	// CacheHit reports that the result came straight from the cache.
	CacheHit bool `json:"cache_hit"`
	// Coalesced reports that the submission was deduplicated onto an
	// identical in-flight execution (singleflight).
	Coalesced bool `json:"coalesced"`
}

// CacheString renders the provenance as the daemon's X-Cache value:
// "hit", "coalesced" or "miss".
func (i Info) CacheString() string {
	switch {
	case i.CacheHit:
		return "hit"
	case i.Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// CacheStats is a point-in-time snapshot of the engine's cache counters.
type CacheStats struct {
	// Hits counts Runs served from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts Runs that executed the job.
	Misses uint64 `json:"misses"`
	// Coalesced counts Runs deduplicated onto an in-flight execution.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries dropped by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Entries and Capacity describe the cache occupancy.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// Stats snapshots the cache counters.
func (e *Engine) Stats() CacheStats {
	entries, evictions := e.cache.stats()
	return CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Coalesced: e.coalesced.Load(),
		Evictions: evictions,
		Entries:   entries,
		Capacity:  e.cache.capacity,
	}
}

// Prepared is a canonicalized job bound to its content address,
// ready for repeated execution without re-canonicalizing. Treat it as
// immutable once built.
type Prepared struct {
	// Job is the canonical form.
	Job *Job
	// Hash is the content address.
	Hash string
	// CanonicalSize is the length in bytes of the canonical JSON
	// encoding of Job (json.Marshal(Job)), the bytes Hash digests. It
	// sizes the job without encoding it again.
	CanonicalSize int
}

// PrepareJob canonicalizes a job once and computes its content address.
// Callers that need the address before (or besides) executing — like
// the daemon, which registers a submission and then runs it — prepare
// once and pass the result to RunPrepared, avoiding a second
// canonicalization pass on the hot path.
func PrepareJob(job *Job) (*Prepared, error) {
	canon, err := job.Canonicalize()
	if err != nil {
		return nil, err
	}
	hash, size, err := canon.canonicalHash()
	if err != nil {
		return nil, err
	}
	return &Prepared{Job: canon, Hash: hash, CanonicalSize: size}, nil
}

// Run canonicalizes and executes the job, serving it from the cache (or
// an identical in-flight execution) when possible. The returned Result
// is shared and must not be mutated.
func (e *Engine) Run(ctx context.Context, job *Job) (*Result, error) {
	res, _, err := e.RunInfo(ctx, job)
	return res, err
}

// RunInfo is Run plus cache/dedup provenance.
func (e *Engine) RunInfo(ctx context.Context, job *Job) (*Result, Info, error) {
	p, err := PrepareJob(job)
	if err != nil {
		return nil, Info{}, err
	}
	return e.RunPrepared(ctx, p)
}

// RunPrepared executes an already-prepared job.
func (e *Engine) RunPrepared(ctx context.Context, p *Prepared) (*Result, Info, error) {
	return e.runPrepared(ctx, p, nil)
}

// RunStream is Run with incremental per-point delivery: for composite
// jobs (compares, sweeps, the arch-experiment grid, and the nested design
// solves of thermalmap/transient/runtime), emit is called on the calling
// goroutine with one PointEvent per sub-job, in point order, as soon as
// that point (and every point before it) is done — while later points
// are still being computed. Non-composite jobs emit no events. A
// non-nil error from emit cancels the execution and is returned.
//
// When the parent is served from the cache — or coalesced onto an
// identical in-flight execution — the events are replayed from the
// finished result, each marked with the parent's provenance. The
// returned Result is bit-identical to Run's for the same job.
func (e *Engine) RunStream(ctx context.Context, job *Job, emit func(PointEvent) error) (*Result, Info, error) {
	p, err := PrepareJob(job)
	if err != nil {
		return nil, Info{}, err
	}
	return e.runPrepared(ctx, p, emit)
}

// RunStreamPrepared is RunStream for an already-prepared job.
func (e *Engine) RunStreamPrepared(ctx context.Context, p *Prepared, emit func(PointEvent) error) (*Result, Info, error) {
	return e.runPrepared(ctx, p, emit)
}

// runPrepared serves a prepared job from the cache, an in-flight
// identical execution, or a fresh execution (in that order), streaming
// per-point events into emit when non-nil.
func (e *Engine) runPrepared(ctx context.Context, p *Prepared, emit func(PointEvent) error) (*Result, Info, error) {
	canon, hash := p.Job, p.Hash
	info := Info{Hash: hash}

	if res, ok := e.cache.get(hash); ok {
		e.hits.Add(1)
		info.CacheHit = true
		if err := e.replay(canon, res, info, emit); err != nil {
			return nil, info, err
		}
		return res, info, nil
	}

	call, leader := e.inflight.join(hash)
	if !leader {
		e.coalesced.Add(1)
		info.Coalesced = true
		select {
		case <-call.done:
			if call.err == nil {
				if err := e.replay(canon, call.res, info, emit); err != nil {
					return nil, info, err
				}
			}
			return call.res, info, call.err
		case <-ctx.Done():
			// The leader keeps computing (and will populate the cache);
			// only this caller gives up.
			return nil, info, ctx.Err()
		}
	}

	// A previous leader may have finished between the cache miss and the
	// join; serve its freshly cached result instead of recomputing.
	if res, ok := e.cache.get(hash); ok {
		e.hits.Add(1)
		info.CacheHit = true
		e.inflight.finish(hash, call, res, nil)
		if err := e.replay(canon, res, info, emit); err != nil {
			return nil, info, err
		}
		return res, info, nil
	}

	e.misses.Add(1)
	start := time.Now()
	res, execErr := e.execGuarded(ctx, canon, hash, &sink{emit: emit})
	e.execLatency.Observe(time.Since(start))
	if execErr == nil {
		e.cache.add(hash, res)
	}
	e.inflight.finish(hash, call, res, execErr)
	return res, info, execErr
}

// execGuarded converts executor panics into errors. The leader MUST
// reach inflight.finish on every path — a leaked call would wedge the
// content address for the life of the process, with every later
// submission joining a channel that never closes.
func (e *Engine) execGuarded(ctx context.Context, canon *Job, hash string, snk *sink) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("engine: job %.12s panicked: %v\n%s", hash, p, debug.Stack())
		}
	}()
	return e.exec(ctx, canon, hash, snk)
}

// Lookup peeks the cache by content hash without touching the hit/miss
// counters (the daemon's cached-result fetch).
func (e *Engine) Lookup(hash string) (*Result, bool) {
	return e.cache.get(hash)
}

// ExecLatency snapshots the solve-latency distribution: wall-clock
// durations of the engine's real executions (cache misses), from
// canonical job to finished result.
func (e *Engine) ExecLatency() telemetry.Snapshot {
	return e.execLatency.Snapshot()
}

// RunAll executes many jobs concurrently on the bounded worker pool.
// Slot i of the result corresponds to jobs[i]; the error is the
// lowest-indexed failure, exactly like a serial loop's.
func (e *Engine) RunAll(ctx context.Context, jobs []*Job) ([]*Result, error) {
	return batch.Map(ctx, len(jobs), func(ctx context.Context, i int) (*Result, error) {
		return e.Run(ctx, jobs[i])
	})
}

// inflightCall is one in-flight execution that followers wait on.
type inflightCall struct {
	done chan struct{}
	res  *Result
	err  error
}

// inflightGroup is a minimal singleflight: join returns the call for a
// hash and whether the caller is its leader (responsible for executing
// and finishing it).
type inflightGroup struct {
	mu    sync.Mutex
	calls map[string]*inflightCall
}

func (g *inflightGroup) join(hash string) (*inflightCall, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[hash]; ok {
		return c, false
	}
	c := &inflightCall{done: make(chan struct{})}
	g.calls[hash] = c
	return c, true
}

func (g *inflightGroup) finish(hash string, c *inflightCall, res *Result, err error) {
	c.res, c.err = res, err
	g.mu.Lock()
	delete(g.calls, hash)
	g.mu.Unlock()
	close(c.done)
}
