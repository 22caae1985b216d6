package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn with GOMAXPROCS pinned to procs, which sizes the
// quota of every pool fn starts at procs-1 helpers.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// peakTracker records the highest number of concurrent calls between
// enter and leave, and the most quota slots borrowed at any enter.
type peakTracker struct {
	cur, peak, peakBorrowed atomic.Int64
}

func raise(v *atomic.Int64, x int64) {
	for {
		p := v.Load()
		if x <= p || v.CompareAndSwap(p, x) {
			return
		}
	}
}

func (pt *peakTracker) enter() {
	raise(&pt.peak, pt.cur.Add(1))
	raise(&pt.peakBorrowed, borrowed.Load())
}

func (pt *peakTracker) leave() { pt.cur.Add(-1) }

// assertReturned fails the test if a quota slot is still borrowed once
// every pool has returned.
func assertReturned(t *testing.T) {
	t.Helper()
	if got := borrowed.Load(); got != 0 {
		t.Fatalf("%d quota slots still borrowed after every pool returned", got)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, procs := range []int{1, 2, 8, 100} {
		withProcs(procs, func() {
			got, err := Map(context.Background(), 50,
				func(_ context.Context, i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			if len(got) != 50 {
				t.Fatalf("procs=%d: got %d results", procs, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("procs=%d: slot %d holds %d, want %d", procs, i, v, i*i)
				}
			}
		})
	}
	assertReturned(t)
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), 0,
		func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestNilFunction(t *testing.T) {
	if err := Run(context.Background(), 3, nil); err == nil {
		t.Fatal("nil work function accepted")
	}
	if _, err := Map[int](context.Background(), 3, nil); err == nil {
		t.Fatal("nil map function accepted")
	}
}

// TestFirstErrorPropagation: the pool must report the error of the
// lowest-indexed failing item — what a serial loop would have hit first —
// no matter which worker observes its failure first.
func TestFirstErrorPropagation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	errAt := func(i int) error { return fmt.Errorf("item %d failed", i) }
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 16,
			func(_ context.Context, i int) (int, error) {
				if i == 3 || i == 11 {
					// Let the higher-indexed failure land first.
					if i == 11 {
						return 0, errAt(i)
					}
					time.Sleep(2 * time.Millisecond)
					return 0, errAt(i)
				}
				return i, nil
			})
		if err == nil {
			t.Fatal("no error propagated")
		}
		if got := err.Error(); got != errAt(3).Error() {
			t.Fatalf("trial %d: propagated %q, want lowest-index error %q", trial, got, errAt(3))
		}
	}
	assertReturned(t)
}

// TestRealErrorBeatsCancellation: when the caller cancels the context
// while another item fails for real, the real failure must be the
// reported error — a cancellation artifact must not mask the root cause,
// even at a lower index.
func TestRealErrorBeatsCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	boom := errors.New("boom at 1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Run(ctx, 2,
		func(ctx context.Context, i int) error {
			if i == 0 {
				<-ctx.Done() // parked until item 1 cancels the caller ctx
				return ctx.Err()
			}
			cancel()
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the real failure", err)
	}
	assertReturned(t)
}

// TestLowerItemsRunDespiteFailure: a failure at a high index must not
// prevent lower-indexed items from running — every item below the lowest
// failing index runs (the serial loop's item set), so the reported error
// is deterministically the lowest-indexed failure even when a higher item
// fails first.
func TestLowerItemsRunDespiteFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const n = 12
	var ran [n]atomic.Bool
	boomHigh := errors.New("boom at 9")
	boomLow := errors.New("boom at 2")
	err := Run(context.Background(), n,
		func(_ context.Context, i int) error {
			ran[i].Store(true)
			switch i {
			case 9:
				return boomHigh // fails first: lower items are still pending
			case 2:
				time.Sleep(3 * time.Millisecond)
				return boomLow
			default:
				time.Sleep(time.Millisecond)
				return nil
			}
		})
	if !errors.Is(err, boomLow) {
		t.Fatalf("got %v, want the lowest-indexed failure", err)
	}
	// Only items below the LOWEST failure (index 2) are guaranteed; items
	// above it may legitimately be skipped once the bar drops.
	for i := 0; i < 2; i++ {
		if !ran[i].Load() {
			t.Fatalf("item %d below the lowest failure was skipped", i)
		}
	}
	assertReturned(t)
}

// TestErrorStopsPool: after an item fails, the pool must not start new
// items (beyond those already claimed by in-flight workers).
func TestErrorStopsPool(t *testing.T) {
	const n, procs = 1000, 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	var started atomic.Int64
	boom := errors.New("boom")
	err := Run(context.Background(), n,
		func(_ context.Context, i int) error {
			started.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(time.Millisecond)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Item 0 fails while at most procs-1 other items are in flight; each
	// surviving worker can claim at most one more item before seeing the
	// lowered bar. Allow generous slack but far below n.
	if s := started.Load(); s > 8*procs {
		t.Fatalf("%d items started after failure; pool did not stop", s)
	}
	assertReturned(t)
}

func TestContextCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	err := Run(ctx, 100, func(ctx context.Context, i int) error {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if s := started.Load(); s > 8 {
		t.Fatalf("%d items started after cancellation", s)
	}
	assertReturned(t)
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		withProcs(procs, func() {
			ran := false
			err := Run(ctx, 10, func(context.Context, int) error {
				ran = true
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("procs=%d: got %v, want context.Canceled", procs, err)
			}
			if ran {
				t.Fatalf("procs=%d: work ran under a cancelled context", procs)
			}
		})
	}
	assertReturned(t)
}

// TestBoundedWorkers: concurrency must never exceed GOMAXPROCS, nor the
// borrowed slots GOMAXPROCS-1, and a lone pool grows to the whole quota.
func TestBoundedWorkers(t *testing.T) {
	const n, procs = 64, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	var pt peakTracker
	err := Run(context.Background(), n,
		func(_ context.Context, i int) error {
			pt.enter()
			defer pt.leave()
			time.Sleep(time.Millisecond)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := pt.peak.Load(); p != procs {
		t.Fatalf("peak concurrency %d, want GOMAXPROCS %d", p, procs)
	}
	if b := pt.peakBorrowed.Load(); b > procs-1 {
		t.Fatalf("%d slots borrowed at once, quota is %d", b, procs-1)
	}
	assertReturned(t)
}

// TestNestedAutoPoolsStayBounded: pools draw their extra workers from one
// machine-wide quota, so two levels of nested fan-out must never run more
// than GOMAXPROCS work functions at once, even though pools grow mid-run —
// the invariant that keeps BatchCompare → Compare → per-channel fan-out
// from oversubscribing the CPUs.
func TestNestedAutoPoolsStayBounded(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	var pt peakTracker
	err := Run(context.Background(), 8, func(ctx context.Context, _ int) error {
		return Run(ctx, 8, func(context.Context, int) error {
			pt.enter()
			defer pt.leave()
			time.Sleep(time.Millisecond)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := pt.peak.Load(); p > procs {
		t.Fatalf("peak leaf concurrency %d exceeds GOMAXPROCS %d", p, procs)
	}
	if b := pt.peakBorrowed.Load(); b > procs-1 {
		t.Fatalf("%d slots borrowed at once, quota is %d", b, procs-1)
	}
	assertReturned(t)
}

// TestNestedPoolTakesFreedSlot: a nested pool that starts while its
// sibling holds the only spare slot must take that slot once the sibling
// returns, whichever of the outer pool's goroutines runs it. This is the
// shape of Compare: a short baseline beside the per-channel fan-out.
func TestNestedPoolTakesFreedSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	for _, nestedFirst := range []bool{false, true} {
		var pt, ptAfter peakTracker
		var siblingDone atomic.Bool
		sibling := func(context.Context) error {
			time.Sleep(20 * time.Millisecond)
			siblingDone.Store(true)
			return nil
		}
		nested := func(ctx context.Context) error {
			return Run(ctx, 16, func(context.Context, int) error {
				after := siblingDone.Load()
				pt.enter()
				if after {
					ptAfter.enter()
				}
				time.Sleep(5 * time.Millisecond)
				if after {
					ptAfter.leave()
				}
				pt.leave()
				return nil
			})
		}
		tasks := []func(context.Context) error{sibling, nested}
		if nestedFirst {
			tasks[0], tasks[1] = nested, sibling
		}
		if err := Do(context.Background(), tasks...); err != nil {
			t.Fatal(err)
		}
		if p := ptAfter.peak.Load(); p != 2 {
			t.Fatalf("nestedFirst=%v: nested pool ran %d items at once after its sibling returned, want 2", nestedFirst, p)
		}
		if p := pt.peak.Load(); p > 2 {
			t.Fatalf("nestedFirst=%v: peak concurrency %d exceeds GOMAXPROCS 2", nestedFirst, p)
		}
		assertReturned(t)
	}
}

// TestPanicOnHelperBecomesItemError: an item that panics on a helper
// goroutine fails with the panic value and its stack as its error, ranked
// by index; the items below it still run and every slot comes back.
func TestPanicOnHelperBecomesItemError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	var ran [4]atomic.Bool
	panicked := make(chan struct{})
	err := Run(context.Background(), 4, func(_ context.Context, i int) error {
		ran[i].Store(true)
		switch i {
		case 0:
			// The caller works item 0 first and stays in it until item 2
			// has panicked, so item 2 runs on a helper.
			select {
			case <-panicked:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("item 2 never ran")
			}
		case 2:
			defer close(panicked)
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "batch: item 2 panicked: boom\n") {
		t.Fatalf("got %v, want item 2's panic", err)
	}
	if !strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("panic error carries no stack: %v", err)
	}
	for i := 0; i < 2; i++ {
		if !ran[i].Load() {
			t.Fatalf("item %d below the panic was skipped", i)
		}
	}
	assertReturned(t)
}

// TestPanicOnCallerWaitsForHelpers: a panic in an item on the caller's
// goroutine must not skip waiting for the helpers or returning their
// slots.
func TestPanicOnCallerWaitsForHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	started := make(chan struct{})
	var finished atomic.Bool
	err := Run(context.Background(), 2, func(_ context.Context, i int) error {
		if i == 1 {
			close(started)
			time.Sleep(10 * time.Millisecond)
			finished.Store(true)
			return nil
		}
		<-started // item 1 is running on the helper
		panic(fmt.Sprintf("boom at %d", i))
	})
	if err == nil || !strings.HasPrefix(err.Error(), "batch: item 0 panicked: boom at 0\n") {
		t.Fatalf("got %v, want item 0's panic", err)
	}
	if !finished.Load() {
		t.Fatal("Run returned before its helper finished")
	}
	assertReturned(t)
}

// TestSlotsReturnedOnEveryOutcome: nested pools give every borrowed slot
// back whether their items succeed, fail, are cancelled or panic.
func TestSlotsReturnedOnEveryOutcome(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	boom := errors.New("boom")
	outcomes := []struct {
		name string
		leaf func(cancel context.CancelFunc, i, j int) error
	}{
		{"success", func(context.CancelFunc, int, int) error { return nil }},
		{"failure", func(_ context.CancelFunc, i, j int) error {
			if i == 3 && j == 2 {
				return boom
			}
			return nil
		}},
		{"cancellation", func(cancel context.CancelFunc, i, j int) error {
			if i == 2 && j == 5 {
				cancel()
			}
			return nil
		}},
		{"panic", func(_ context.CancelFunc, i, j int) error {
			if i == 4 && j == 1 {
				panic("boom")
			}
			return nil
		}},
	}
	for _, oc := range outcomes {
		ctx, cancel := context.WithCancel(context.Background())
		var pt peakTracker
		err := Run(ctx, 8, func(ctx context.Context, i int) error {
			return Run(ctx, 8, func(_ context.Context, j int) error {
				pt.enter()
				defer pt.leave()
				time.Sleep(time.Millisecond)
				return oc.leaf(cancel, i, j)
			})
		})
		cancel()
		if (err == nil) != (oc.name == "success") {
			t.Fatalf("%s: got error %v", oc.name, err)
		}
		if b := pt.peakBorrowed.Load(); b > procs-1 {
			t.Fatalf("%s: %d slots borrowed at once, quota is %d", oc.name, b, procs-1)
		}
		if got := borrowed.Load(); got != 0 {
			t.Fatalf("%s: %d quota slots still borrowed", oc.name, got)
		}
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	var a, b, c atomic.Bool
	err := Do(context.Background(),
		func(context.Context) error { a.Store(true); return nil },
		func(context.Context) error { b.Store(true); return nil },
		func(context.Context) error { c.Store(true); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("not all tasks ran")
	}
}

func TestDoFirstError(t *testing.T) {
	e1 := errors.New("first")
	err := Do(context.Background(),
		func(context.Context) error { time.Sleep(2 * time.Millisecond); return e1 },
		func(context.Context) error { return errors.New("second") },
	)
	if !errors.Is(err, e1) {
		t.Fatalf("got %v, want the lower-indexed task's error", err)
	}
}

// TestStreamOrdersEmission: emit must fire in index order with each value
// in its slot, even when later items finish first.
func TestStreamOrdersEmission(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const n = 12
	var got []int
	err := Stream(context.Background(), n,
		func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Duration(n-i) * time.Millisecond) // reverse finish order
			return i * 10, nil
		},
		func(i, v int) error {
			if v != i*10 {
				t.Errorf("slot %d delivered %d", i, v)
			}
			got = append(got, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emission order %v", got)
		}
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
}

// TestStreamDeliversPrefixBeforeFailure: results before the failing item
// must reach emit; the failure is returned afterwards.
func TestStreamDeliversPrefixBeforeFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	boom := errors.New("boom at 3")
	var emitted []int
	err := Stream(context.Background(), 8,
		func(_ context.Context, i int) (int, error) {
			if i == 3 {
				return 0, boom
			}
			return i, nil
		},
		func(i, v int) error {
			emitted = append(emitted, i)
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if len(emitted) != 3 {
		t.Fatalf("emitted %v, want exactly [0 1 2]", emitted)
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("emitted %v", emitted)
		}
	}
}

// TestStreamEmitErrorCancels: a failing emit stops the batch and is the
// returned error.
func TestStreamEmitErrorCancels(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	stop := errors.New("stop after first row")
	var ran atomic.Int64
	err := Stream(context.Background(), 100,
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return i, nil
		},
		func(i, v int) error {
			if i == 0 {
				return stop
			}
			t.Errorf("emit after stop: %d", i)
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want emit error", err)
	}
	if r := ran.Load(); r > 50 {
		t.Fatalf("%d items ran after emit aborted", r)
	}
}

func TestStreamEmpty(t *testing.T) {
	if err := Stream(context.Background(), 0,
		func(context.Context, int) (int, error) { return 0, nil },
		func(int, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Stream[int](context.Background(), 3, nil, nil); err == nil {
		t.Fatal("nil functions accepted")
	}
}

// TestMapDeterministic: identical inputs produce bit-identical outputs for
// any quota, including a pool that stays on the caller's goroutine.
func TestMapDeterministic(t *testing.T) {
	work := func(_ context.Context, i int) (float64, error) {
		v := 1.0
		for k := 0; k < 100; k++ {
			v = v*1.0000001 + float64(i)*1e-9
		}
		return v, nil
	}
	var serial []float64
	withProcs(1, func() {
		var err error
		if serial, err = Map(context.Background(), 200, work); err != nil {
			t.Fatal(err)
		}
	})
	for _, procs := range []int{2, 4, 16} {
		withProcs(procs, func() {
			parallel, err := Map(context.Background(), 200, work)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("procs=%d: slot %d differs: %v != %v",
						procs, i, serial[i], parallel[i])
				}
			}
		})
	}
	assertReturned(t)
}
