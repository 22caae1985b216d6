// Package batch runs independent evaluations concurrently on a bounded
// worker pool. It is the concurrency substrate of the library: the
// three-way comparison (package core), the decoupled per-channel optimizer
// (package control), the public BatchCompare/BatchOptimize API and the
// sweep/experiments commands all fan their independent model solves out
// through Map, Run or Do.
//
// The pool is deliberately simple and deterministic:
//
//   - Bounded: the goroutine that calls Run, Map, Do or Stream is its
//     pool's guaranteed worker, so progress never depends on the quota
//     and nesting cannot deadlock. Every other worker holds one slot of a
//     machine-wide quota of runtime.GOMAXPROCS(0)-1. A worker that claims
//     an item while unclaimed items remain takes a free slot, if there is
//     one, and starts one more worker; whichever worker finds no item left
//     gives one of its pool's slots back. A slot therefore follows the
//     work, not the worker: a pool holds one slot per running worker
//     beyond the first, a long last item holds none, and a nested pool
//     that started while its siblings held the quota grows as soon as one
//     of them finishes. Nested fan-out cannot oversubscribe the CPUs: at
//     any instant at most GOMAXPROCS-1 borrowed workers run besides the
//     top-level callers.
//   - Indexed: Map writes result i to slot i, so parallel output order is
//     identical to serial order regardless of scheduling.
//   - Serial-equivalent first-error propagation: a failure at index j
//     stops the pool from starting any item above j, while every item
//     below j still runs — exactly the set of items a serial loop would
//     have run — so the returned error is always the lowest-indexed
//     failure, identical to a serial loop's. In-flight items above j run
//     to completion (at most one per running worker). An item that
//     panics fails with the panic value and its stack as its error, on
//     whichever goroutine it ran.
//   - Context-cancellable: cancelling the supplied context stops the pool
//     between items; workers never start an item after cancellation.
//
// Work functions receive the caller's context so long-running items can
// observe cancellation themselves.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// borrowed counts the quota slots held by pools' extra workers. The quota
// is re-read from GOMAXPROCS on every borrow, so runtime changes (tests
// pin GOMAXPROCS) take effect immediately.
var borrowed atomic.Int64

func tryBorrow() bool {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		cur := borrowed.Load()
		if cur >= limit {
			return false
		}
		if borrowed.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// firstError retains the error of the lowest-indexed failing item, which
// makes parallel error reporting identical to a serial loop's. Errors that
// merely reflect cancellation (context.Canceled / DeadlineExceeded) are
// ranked below real failures: when the caller cancels the context (or
// Stream aborts on an emit error) while another item fails for real, the
// cancellation artifact must not displace the root cause.
type firstError struct {
	mu     sync.Mutex
	idx    int
	err    error
	strong bool
}

func isStrong(err error) bool {
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func (fe *firstError) set(idx int, err error) {
	strong := isStrong(err)
	fe.mu.Lock()
	defer fe.mu.Unlock()
	switch {
	case fe.err == nil:
		fe.idx, fe.err, fe.strong = idx, err, strong
	case strong && !fe.strong:
		fe.idx, fe.err, fe.strong = idx, err, true
	case strong == fe.strong && idx < fe.idx:
		fe.idx, fe.err = idx, err
	}
}

func (fe *firstError) get() error {
	fe.mu.Lock()
	defer fe.mu.Unlock()
	return fe.err
}

// Run applies f to every index in [0, n) and returns the first error (by
// item index), if any. The caller's goroutine works through the items
// itself and draws helpers from the machine-wide quota while items remain.
func Run(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	if f == nil {
		return fmt.Errorf("batch: nil work function")
	}
	if n <= 0 {
		return nil
	}
	p := &pool{ctx: ctx, f: f}
	p.failBar.Store(int64(n))
	p.work()
	p.wg.Wait()
	if err := p.fe.get(); err != nil {
		return err
	}
	// No item failed; a non-nil context error can only come from the
	// caller's context.
	return ctx.Err()
}

// pool is the state one Run call shares among its workers.
type pool struct {
	ctx     context.Context
	f       func(ctx context.Context, i int) error
	next    atomic.Int64 // next unclaimed index
	failBar atomic.Int64 // lowest failing index so far; n while none
	held    atomic.Int64 // quota slots held: one per running worker beyond the first
	fe      firstError
	wg      sync.WaitGroup // the helpers
}

// work claims and runs items until none is left to run. The caller runs
// it directly; each helper runs it on a goroutine of its own.
func (p *pool) work() {
	defer p.giveBack()
	for p.ctx.Err() == nil {
		i := p.next.Add(1) - 1
		// Serial equivalence: a serial loop runs every item up to and
		// including its first failure. Items below the bar therefore
		// always run (indices are claimed in order, so they were claimed
		// before the bar dropped); items at or above it are never started.
		// The bar starts at n, so this also ends the loop past the last
		// item.
		if i >= p.failBar.Load() {
			return
		}
		// Items are left unclaimed: take a free slot, if there is one,
		// for one more worker.
		if p.next.Load() < p.failBar.Load() && tryBorrow() {
			p.held.Add(1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.work()
			}()
		}
		if err := p.call(int(i)); err != nil {
			p.fe.set(int(i), err)
			for {
				cur := p.failBar.Load()
				if i >= cur || p.failBar.CompareAndSwap(cur, i) {
					break
				}
			}
			return
		}
	}
}

// giveBack returns one of the pool's quota slots, if it holds any, when a
// worker stops: whichever worker finds no item left frees a slot for
// other pools while its siblings finish their items.
func (p *pool) giveBack() {
	for {
		h := p.held.Load()
		if h == 0 {
			return
		}
		if p.held.CompareAndSwap(h, h-1) {
			borrowed.Add(-1)
			return
		}
	}
}

// call runs item i and turns a panic into the item's error, so that it is
// ranked like any other failure and never skips the wait for the helpers
// or the return of their slots.
func (p *pool) call(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch: item %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return p.f(p.ctx, i)
}

// Map applies f to every index in [0, n) and collects the results in
// index order. On error the partial results are discarded.
func Map[T any](ctx context.Context, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if f == nil {
		return nil, fmt.Errorf("batch: nil work function")
	}
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := Run(ctx, n, func(ctx context.Context, i int) error {
		v, err := f(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Do runs a fixed set of heterogeneous tasks concurrently and returns the
// first error by task position. It is the fan-out primitive for small
// fixed task sets, e.g. the three evaluations of a comparison.
func Do(ctx context.Context, tasks ...func(ctx context.Context) error) error {
	return Run(ctx, len(tasks), func(ctx context.Context, i int) error {
		return tasks[i](ctx)
	})
}

// Stream is Map with incremental, in-order delivery: emit(i, v) is called
// from the caller's goroutine for i = 0, 1, 2, … as soon as result i (and
// every result before it) is ready, while later items are still being
// computed. Long-running batches can report progress row by row, and on
// failure the results before the failing item have already been
// delivered instead of being discarded. A non-nil error from emit cancels
// the batch and is returned.
func Stream[T any](ctx context.Context, n int, f func(ctx context.Context, i int) (T, error), emit func(i int, v T) error) error {
	if f == nil || emit == nil {
		return fmt.Errorf("batch: nil work or emit function")
	}
	if n <= 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]T, n)
	done := make([]chan struct{}, n) // done[i] closes when out[i] is ready
	for i := range done {
		done[i] = make(chan struct{})
	}
	poolDone := make(chan error, 1)
	go func() {
		poolDone <- Run(ctx, n, func(ctx context.Context, i int) error {
			v, err := f(ctx, i)
			if err != nil {
				return err
			}
			out[i] = v
			close(done[i])
			return nil
		})
	}()

	poolErr, poolFinished := error(nil), false
	// ready waits for slot i; false means the pool ended without it.
	ready := func(i int) bool {
		if !poolFinished {
			select {
			case <-done[i]:
				return true
			case poolErr = <-poolDone:
				poolFinished = true
			}
		}
		select {
		case <-done[i]:
			return true
		default:
			return false
		}
	}
	for i := 0; i < n; i++ {
		if !ready(i) {
			return poolErr
		}
		if err := emit(i, out[i]); err != nil {
			cancel()
			if !poolFinished {
				<-poolDone
			}
			return err
		}
	}
	if !poolFinished {
		poolErr = <-poolDone
	}
	return poolErr
}
