package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a snapshot of the Go runtime's and the kernel's
// accounting for this process, read at phase boundaries.
type procSample struct {
	wall      time.Time
	cpu       time.Duration // user + system CPU of the process
	allocB    uint64        // cumulative bytes allocated on the heap
	gcCycles  uint64
	gcCPU     float64 // cumulative GC CPU seconds
	maxRSSKiB int64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readProc() procSample {
	s := procSample{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSSKiB = ru.Maxrss
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.allocB = ms[0].Value.Uint64()
	s.gcCycles = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	return s
}

// procDelta is the process work done between two samples.
type procDelta struct {
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	gcCycles uint64
	gcCPU    float64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		allocB:   b.allocB - a.allocB,
		gcCycles: b.gcCycles - a.gcCycles,
		gcCPU:    b.gcCPU - a.gcCPU,
	}
}

func (d *procDelta) add(o procDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocB += o.allocB
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
}

// liveHeap forces two full collections and returns the live heap they
// leave.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// programHeap returns the live heap the program's state holds: the live
// heap while the caller keeps that state (the engine cache, the daemon
// registry) reachable, minus the live heap after release has dropped it.
// What the benchmark itself holds is live in both readings and cancels.
func programHeap(release func() error) (uint64, error) {
	with := liveHeap()
	if err := release(); err != nil {
		return 0, err
	}
	without := liveHeap()
	if without > with {
		return 0, nil
	}
	return with - without, nil
}

// recordProcMetrics stores the Go-runtime and process per-layer metrics
// of a timed phase.
func recordProcMetrics(tr *tracer, d procDelta) {
	if tr == nil {
		return
	}
	tr.set("go.alloc_mb", float64(d.allocB)/(1<<20))
	tr.set("go.gc_cycles", float64(d.gcCycles))
	tr.set("go.gc_cpu_s", d.gcCPU)
	if d.wall > 0 {
		tr.set("batch.cpu_util", float64(d.cpu)/(float64(d.wall)*float64(runtime.GOMAXPROCS(0))))
	}
	tr.set("proc.maxrss_mb", float64(readProc().maxRSSKiB)/1024)
}
