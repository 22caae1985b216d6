package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around every call the benchmark makes into a
// layer of the program, plus the per-layer counts read at the same
// boundaries. It lives in memory and is written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
//
// Span names carry the module prefix of the layer they wrap (daemon.,
// engine., grid., control., ...), so spans recorded inside the program
// later can report under the same names.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []spanRecord
	metrics map[string]float64
}

// spanRecord is one finished span. Times are nanoseconds since the
// tracer started; Parent is 0 for a root span.
type spanRecord struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), metrics: make(map[string]float64)}
}

// span is an open span; end closes it.
type span struct {
	tr     *tracer
	id     int
	parent int
	op     int
	name   string
	start  int64
}

// start opens a span named name under parent (nil for a root) for
// operation op.
func (t *tracer) start(name string, parent *span, op int) *span {
	if t == nil {
		return nil
	}
	s := &span{tr: t, op: op, name: name, start: time.Since(t.t0).Nanoseconds()}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	// Reserve the slot now so IDs follow start order.
	t.spans = append(t.spans, spanRecord{})
	t.mu.Unlock()
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	end := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id-1] = spanRecord{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name, Start: s.start, End: end}
	s.tr.mu.Unlock()
	return time.Duration(end - s.start)
}

// set records a per-layer metric value.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.metrics[name] = v
	t.mu.Unlock()
}

// has reports whether a per-layer metric was recorded.
func (t *tracer) has(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.metrics[name]
	return ok
}

// writeJSON writes every span as one JSON document.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Spans []spanRecord `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

// layerRow summarizes the spans of one name: how many, their total
// time, their self time (total minus the part covered by child spans)
// and their median.
type layerRow struct {
	name             string
	count            int
	total, self, p50 time.Duration
}

// summary aggregates the spans by name, sorted by name.
func (t *tracer) summary() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]spanRecord)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerRow)
	durs := make(map[string][]time.Duration)
	for _, s := range t.spans {
		if s.ID == 0 {
			continue // never ended
		}
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
		}
		d := time.Duration(s.End - s.Start)
		r.count++
		r.total += d
		r.self += d - covered(s, children[s.ID])
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]layerRow, 0, len(byName))
	for name, r := range byName {
		r.p50 = medianDuration(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval its children cover
// (overlapping children count once).
func covered(parent spanRecord, kids []spanRecord) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// printSummary writes the per-layer span table.
func (t *tracer) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	for _, r := range t.summary() {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f %12.3f\n", r.name, r.count,
			ms(r.total), ms(r.self), ms(r.p50))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
