// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload from a seed:
//
//	perfbench --workload design|plant|serve --seed N --seconds S --trace 0|1
//
// It drives the program only through the surfaces its users drive — job
// JSON into the root package's Engine, and chanmodd's HTTP API served by
// internal/daemon — times every operation from outside, checks every
// output, and prints as its last line one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// and the counts of operations attempted and failed. See README.md for
// the workloads, the metrics and how to read them; perfbench/run.sh
// builds and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cliutil"
)

func main() {
	cliutil.Main(run)
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are the metrics a user of the system sees, printed by
// every untraced run of every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"retained_mb", "MB", "lower"},
}

// layerMetrics are the per-layer metrics of the traced run, named after
// the module they measure.
var layerMetrics = []metricDef{
	{"daemon.run_hit_ms", "ms", "lower"},
	{"daemon.run_miss_ms", "ms", "lower"},
	{"daemon.submit_ms", "ms", "lower"},
	{"daemon.stream_ms", "ms", "lower"},
	{"daemon.result_ms", "ms", "lower"},
	{"daemon.server_run_ms", "ms", "lower"},
	{"engine.decode_us", "us", "lower"},
	{"engine.prepare_us", "us", "lower"},
	{"engine.hit_us", "us", "lower"},
	{"engine.encode_us", "us", "lower"},
	{"engine.hit_ratio", "ratio", "higher"},
	{"engine.misses", "count", "lower"},
	{"engine.evictions", "count", "lower"},
	{"engine.exec_p50_ms", "ms", "lower"},
	{"batch.cpu_util", "ratio", "higher"},
	{"control.model_solves", "count", "lower"},
	{"control.gradient_evals", "count", "lower"},
	{"control.inner_iters", "count", "lower"},
	{"control.outer_iters", "count", "lower"},
	{"control.epoch_ms", "ms", "lower"},
	{"compact.memo_hit_ratio", "ratio", "higher"},
	{"compact.deriv_hit_ratio", "ratio", "higher"},
	{"compact.ms_per_solve", "ms", "lower"},
	{"grid.steady_ms", "ms", "lower"},
	{"grid.steady_iters", "count", "lower"},
	{"grid.setup_lu_ms", "ms", "lower"},
	{"grid.setup_mor_ms", "ms", "lower"},
	{"grid.step_lu_us", "us", "lower"},
	{"grid.step_mor_us", "us", "lower"},
	{"grid.reduced_dim", "count", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_s", "s", "lower"},
	{"proc.maxrss_mb", "MB", "lower"},
	{"client.late_p99_ms", "ms", "lower"},
}

// runCfg is what a workload run receives.
type runCfg struct {
	seed   int64
	rounds int
	// probe shrinks the workload to one small round; traced runs of
	// other workloads use it to measure the layers they do not exercise.
	probe bool
	// tr records spans and per-layer metrics; nil for untraced runs.
	tr *tracer
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// roundSeconds is the nominal length of one timed round on the
	// reference machine (2 vCPU); --seconds is divided by it to give the
	// round count, never fewer than minRounds.
	roundSeconds float64
	minRounds    int
	// owns lists the module prefixes of the per-layer metrics the
	// workload measures on its own traffic.
	owns []string
	run  func(ctx context.Context, cfg runCfg) (*outcome, error)
}

var workloads = []*workload{designWorkload, plantWorkload, serveWorkload}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rounds returns the number of whole rounds a run of the given length
// makes. It depends on --seconds only, never on how fast the machine
// is, so every run of one seed does the same work.
func (w *workload) rounds(seconds int) int {
	n := int(math.Round(float64(seconds) / w.roundSeconds))
	return max(n, w.minRounds)
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	attempted, failed int
	// setups holds the set-up wall time of each round.
	setups []time.Duration
	// latencies are the successful operations of the latency phase.
	latencies []time.Duration
	// closedOps operations completed in closedWall of closed-loop phase.
	closedOps  int
	closedWall time.Duration
	// retained is the live heap after the timed phase.
	retained uint64
	// problems lists failed output checks, each naming the operation and
	// the property; failures lists the failed operations.
	problems []string
	failures []string
	// byLabel holds the latencies of each job of a job-list workload.
	byLabel map[string][]time.Duration
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// endToEnd derives the end-to-end metrics of an outcome.
func (o *outcome) endToEnd() map[string]float64 {
	lat := sortedMS(o.latencies)
	tail, ok := tailPercentile(len(lat))
	if !ok {
		tail = 50
	}
	m := map[string]float64{
		"setup_s":     medianDuration(o.setups).Seconds(),
		"op_p50_ms":   percentile(lat, 50),
		"op_tail_ms":  percentile(lat, tail),
		"retained_mb": float64(o.retained) / (1 << 20),
	}
	if o.closedWall > 0 {
		m["ops_per_s"] = float64(o.closedOps) / o.closedWall.Seconds()
	}
	return m
}

// tailLabel describes op_tail_ms's percentile and sample count.
func (o *outcome) tailLabel() string {
	n := len(o.latencies)
	if p, ok := tailPercentile(n); ok {
		return fmt.Sprintf("p%g of %d operations", p, n)
	}
	return fmt.Sprintf("median of %d operations (below %d, no tail)", n, minTailSamples)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func run() error {
	name := flag.String("workload", "", "workload to run: design, plant or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "nominal measuring time; sets the number of whole rounds")
	traced := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced mode writes its spans to")
	flag.Parse()

	w := lookupWorkload(*name)
	switch {
	case w == nil:
		return cliutil.UsageErrorf("perfbench: unknown workload %q (want design, plant or serve)", *name)
	case *seconds < 1:
		return cliutil.UsageErrorf("perfbench: --seconds %d below 1", *seconds)
	case *traced != 0 && *traced != 1:
		return cliutil.UsageErrorf("perfbench: --trace %d (want 0 or 1)", *traced)
	}
	ctx, stop := cliutil.SignalContext()
	defer stop()
	cfg := runCfg{seed: *seed, rounds: w.rounds(*seconds)}
	if *traced == 0 {
		return runUntraced(ctx, os.Stdout, w, cfg)
	}
	return runTraced(ctx, os.Stdout, w, cfg, *traceDir)
}

func runUntraced(ctx context.Context, out io.Writer, w *workload, cfg runCfg) error {
	o, err := w.run(ctx, cfg)
	if err != nil {
		return err
	}
	report(o)
	m := o.endToEnd()
	printJobTimes(out, o)
	fmt.Fprintf(out, "%s seed %d: %d rounds, op_tail_ms is the %s\n", w.name, cfg.seed, cfg.rounds, o.tailLabel())
	return printResult(out, o, endToEndMetrics, m)
}

// runTraced runs the workload untraced and then traced on the same seed,
// prints the tracing overhead and the per-layer span table, writes the
// spans, and prints the per-layer metrics. Layers the workload does not
// exercise are measured by a one-round probe of the workload that does.
func runTraced(ctx context.Context, out io.Writer, w *workload, cfg runCfg, traceDir string) error {
	base, err := w.run(ctx, cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	tcfg := cfg
	tcfg.tr = tr
	o, err := w.run(ctx, tcfg)
	if err != nil {
		return err
	}
	report(base)
	report(o)
	for _, other := range workloads {
		if other == w {
			continue
		}
		ptr := newTracer()
		po, err := other.run(ctx, runCfg{seed: cfg.seed, rounds: 1, probe: true, tr: ptr})
		if err != nil {
			return fmt.Errorf("%s probe: %w", other.name, err)
		}
		report(po)
		o.problems = append(o.problems, po.problems...)
		for _, m := range layerMetrics {
			if !tr.has(m.name) && ptr.has(m.name) && other.ownsMetric(m.name) {
				tr.set(m.name, ptr.metrics[m.name])
			}
		}
	}

	fmt.Fprintf(out, "tracing overhead, %s seed %d (untraced vs traced run):\n", w.name, cfg.seed)
	bm, tm := base.endToEnd(), o.endToEnd()
	for _, m := range endToEndMetrics {
		ratio := tm[m.name] / bm[m.name]
		fmt.Fprintf(out, "  %-12s %12.4f %12.4f %s  traced/untraced %.3f\n", m.name, bm[m.name], tm[m.name], m.unit, ratio)
	}
	tr.printSummary(out)
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := tr.writeJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)

	var missing []string
	for _, m := range layerMetrics {
		if !tr.has(m.name) {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("perfbench: traced run measured no %s", strings.Join(missing, ", "))
	}
	o.problems = append(o.problems, base.problems...)
	return printResult(out, o, layerMetrics, tr.metrics)
}

func (w *workload) ownsMetric(name string) bool {
	for _, p := range w.owns {
		if strings.HasPrefix(name, p+".") {
			return true
		}
	}
	return false
}

// printJobTimes prints each job's median latency over the rounds,
// fastest first.
func printJobTimes(out io.Writer, o *outcome) {
	type row struct {
		label string
		d     time.Duration
	}
	var rows []row
	for _, l := range sortedKeys(o.byLabel) {
		rows = append(rows, row{l, medianDuration(o.byLabel[l])})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].d < rows[j].d })
	for _, r := range rows {
		fmt.Fprintf(out, "  job %-40s %10.2f ms\n", r.label, ms(r.d))
	}
}

// report writes failed operations and failed checks to standard error.
func report(o *outcome) {
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "failed operation:", f)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
}

// printResult prints the metric table and then, as the last line, the
// result object.
func printResult(out io.Writer, o *outcome, defs []metricDef, values map[string]float64) error {
	line := resultLine{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, m := range defs {
		v := values[m.name]
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("perfbench: encode result: %w", err)
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
