package daemon

import (
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// Ops metrics: every endpoint is wrapped in an instrumentation layer
// recording request counts, status classes and a latency histogram
// into lock-free telemetry primitives (internal/telemetry;
// internal/metrics stays thermal-only). GET /v1/metrics serves the
// full snapshot; /v1/stats carries the headline queue-depth and
// solve-latency numbers alongside the cache counters it always had.
//
// Endpoint latency is measured handler-entry to handler-exit. For the
// events endpoint that is the lifetime of the stream — a long-lived
// subscription is not a slow request, so dashboards should read the
// events histogram as "subscription duration".

// endpointNames fixes the instrumented endpoint set and its JSON
// order (a sorted constant, so /v1/metrics is deterministic without
// map iteration).
var endpointNames = []string{"events", "healthz", "metrics", "poll", "result", "run", "stats", "submit"}

// endpointMetrics is one endpoint's counters and latency histogram.
type endpointMetrics struct {
	latency      *telemetry.Histogram
	requests     telemetry.Counter
	shed         telemetry.Counter // 429 responses
	clientErrors telemetry.Counter // other 4xx
	errors       telemetry.Counter // 5xx
}

// opsMetrics is the daemon's metric registry, keyed by endpoint name.
type opsMetrics struct {
	byName map[string]*endpointMetrics
}

func newOpsMetrics() *opsMetrics {
	m := &opsMetrics{byName: make(map[string]*endpointMetrics, len(endpointNames))}
	for _, name := range endpointNames {
		m.byName[name] = &endpointMetrics{latency: telemetry.NewHistogram(nil)}
	}
	return m
}

// statusWriter captures the response status for instrumentation while
// passing Flush through (the events endpoint streams).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint handler with latency and status-class
// recording under the given endpoint name.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics.byName[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		m.latency.Observe(time.Since(start))
		m.requests.Inc()
		switch status := sw.status; {
		case status == http.StatusTooManyRequests:
			m.shed.Inc()
		case status >= 500:
			m.errors.Inc()
		case status >= 400:
			m.clientErrors.Inc()
		}
	}
}

// endpointJSON is one endpoint's /v1/metrics entry.
type endpointJSON struct {
	Requests     uint64                 `json:"requests"`
	Shed         uint64                 `json:"shed,omitempty"`
	ClientErrors uint64                 `json:"client_errors,omitempty"`
	Errors       uint64                 `json:"errors,omitempty"`
	Latency      telemetry.SnapshotJSON `json:"latency"`
}

// admissionJSON is one limiter's /v1/metrics entry.
type admissionJSON struct {
	InflightLimit int    `json:"inflight_limit"`
	QueueLimit    int64  `json:"queue_limit"`
	Executing     int64  `json:"executing"`
	Queued        int64  `json:"queued"`
	Shed          uint64 `json:"shed"`
}

func limiterJSON(l *limiter) admissionJSON {
	executing, queued := l.depth()
	return admissionJSON{
		InflightLimit: l.inflight,
		QueueLimit:    l.capacity - int64(l.inflight),
		Executing:     executing,
		Queued:        queued,
		Shed:          l.shed.Load(),
	}
}

// metricsResponse is the GET /v1/metrics payload.
type metricsResponse struct {
	Endpoints map[string]endpointJSON  `json:"endpoints"`
	Admission map[string]admissionJSON `json:"admission"`
	// SolveLatency is the engine's execution-latency distribution
	// (cache misses only — see Engine.ExecLatency).
	SolveLatency telemetry.SnapshotJSON `json:"solve_latency"`
	Cache        cacheJSON              `json:"cache"`
	Jobs         jobCounts              `json:"jobs"`
	Prepare      prepareCounts          `json:"prepare"`
}

// cacheJSON extends the engine's cache counters with the derived hit
// ratio over all served runs.
type cacheJSON struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRatio  float64 `json:"hit_ratio"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	cs := s.eng.Stats()
	resp := metricsResponse{
		Endpoints: make(map[string]endpointJSON, len(endpointNames)),
		Admission: map[string]admissionJSON{
			"run":    limiterJSON(s.runLim),
			"submit": limiterJSON(s.submitLim),
		},
		SolveLatency: s.eng.ExecLatency().JSON(),
		Cache: cacheJSON{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Coalesced: cs.Coalesced,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Capacity:  cs.Capacity,
			HitRatio:  hitRatio(cs.Hits, cs.Misses, cs.Coalesced),
		},
		Jobs:    s.jobCounts(),
		Prepare: s.prepareCounts(),
	}
	for _, name := range endpointNames {
		m := s.metrics.byName[name]
		resp.Endpoints[name] = endpointJSON{
			Requests:     m.requests.Load(),
			Shed:         m.shed.Load(),
			ClientErrors: m.clientErrors.Load(),
			Errors:       m.errors.Load(),
			Latency:      m.latency.Snapshot().JSON(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// hitRatio is hits over all cache-answerable requests, zero when none.
func hitRatio(hits, misses, coalesced uint64) float64 {
	total := hits + misses + coalesced
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
