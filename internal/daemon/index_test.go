package daemon

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	channelmod "repro"
	"repro/internal/genscen"
)

// newIndexServer returns a server and a test HTTP server over it, so a
// test can read the body index next to the responses.
func newIndexServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewOptions(context.Background(), channelmod.NewEngine(8), opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// prepareStats reads the prepare counters of /v1/stats and checks that
// /v1/metrics reports the same.
func prepareStats(t *testing.T, base string) prepareCounts {
	t.Helper()
	var stats, metrics struct {
		Prepare prepareCounts `json:"prepare"`
	}
	for url, into := range map[string]any{"/v1/stats": &stats, "/v1/metrics": &metrics} {
		resp, body := get(t, base+url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Prepare != metrics.Prepare {
		t.Fatalf("prepare counters: stats %+v, metrics %+v", stats.Prepare, metrics.Prepare)
	}
	return stats.Prepare
}

// indexSize returns the number of body digests and of tracked states,
// after checking that every digest resolves to a tracked state that
// retains its job and is indexed under that digest.
func indexSize(t *testing.T, s *Server) (indexed, tracked int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for sum, st := range s.bodies {
		if s.jobs[st.ID] != st || st.prep == nil || st.body != sum {
			t.Errorf("index entry %x → %.12s is not a tracked state indexed under it", sum[:6], st.ID)
		}
	}
	return len(s.bodies), len(s.jobs)
}

// runOK posts a job to /v1/run, fails the test unless it is answered
// 200, and returns the X-Cache header and the body.
func runOK(t *testing.T, base, body string) (string, []byte) {
	t.Helper()
	resp, b := post(t, base+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, b)
	}
	return resp.Header.Get("X-Cache"), b
}

// TestRunRepeatReusesPrepare: a second identical POST /v1/run is
// answered from the body index, byte-identically and from the cache; so
// is an identical resubmission to POST /v1/jobs.
func TestRunRepeatReusesPrepare(t *testing.T) {
	s, ts := newIndexServer(t, Options{})

	if xc, _ := runOK(t, ts.URL, fastJobJSON); xc != "miss" {
		t.Fatalf("first run X-Cache = %q, want miss", xc)
	}
	_, first := runOK(t, ts.URL, fastJobJSON)
	before := prepareStats(t, ts.URL)
	xc, again := runOK(t, ts.URL, fastJobJSON)
	if xc != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(first, again) {
		t.Error("repeat answer differs from the first")
	}
	after := prepareStats(t, ts.URL)
	if after.Reused != before.Reused+1 || after.Decoded != before.Decoded {
		t.Errorf("prepare counters %+v → %+v, want one more reused and no more decoded", before, after)
	}

	resp, body := post(t, ts.URL+"/v1/jobs", fastJobJSON)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status": "done"`) {
		t.Errorf("resubmission: status %d: %s", resp.StatusCode, body)
	}
	if got := prepareStats(t, ts.URL); got.Reused != after.Reused+1 {
		t.Errorf("resubmission not reused: %+v", got)
	}
	if indexed, _ := indexSize(t, s); indexed != 1 {
		t.Errorf("index holds %d digests, want 1", indexed)
	}
}

// TestRunVariantDecodes: the same job with other whitespace or another
// key order decodes (its bytes are new) to the same address and the
// same answer, and becomes its state's one digest in the index.
func TestRunVariantDecodes(t *testing.T) {
	s, ts := newIndexServer(t, Options{})

	var compact bytes.Buffer
	if err := json.Compact(&compact, []byte(fastJobJSON)); err != nil {
		t.Fatal(err)
	}
	reordered := `{"optimize": {"variant": "baseline"},
	  "scenario": {"channels": [
	      {"bottom_wcm2": [50, 50], "top_wcm2": [50, 50]},
	      {"bottom_wcm2": [30, 30], "top_wcm2": [30, 180]}
	    ], "segments": 2, "name": "daemon-test"},
	  "kind": "optimize"}`

	_, want := runOK(t, ts.URL, fastJobJSON)
	for i, variant := range []string{compact.String(), reordered, fastJobJSON + " \n\t\r\n"} {
		before := prepareStats(t, ts.URL)
		xc, got := runOK(t, ts.URL, variant)
		if xc != "hit" {
			t.Errorf("variant %d: X-Cache = %q, want hit", i, xc)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("variant %d: answer differs:\n%s\nvs\n%s", i, got, want)
		}
		if after := prepareStats(t, ts.URL); after.Decoded != before.Decoded+1 || after.Reused != before.Reused {
			t.Errorf("variant %d: prepare counters %+v → %+v, want one more decoded", i, before, after)
		}
		if indexed, _ := indexSize(t, s); indexed != 1 {
			t.Errorf("variant %d: index holds %d digests, want 1 (one per state)", i, indexed)
		}
	}

	// The latest variant is now the state's digest, and the original
	// body, replaced, decodes again.
	before := prepareStats(t, ts.URL)
	runOK(t, ts.URL, fastJobJSON+" \n\t\r\n")
	runOK(t, ts.URL, fastJobJSON)
	if after := prepareStats(t, ts.URL); after.Reused != before.Reused+1 || after.Decoded != before.Decoded+1 {
		t.Errorf("prepare counters %+v → %+v, want the latest variant reused and the original decoded", before, after)
	}
}

// TestFailedBodiesNeverReused: a body that fails to decode or prepare
// gets the same 400 text every time and is never remembered.
func TestFailedBodiesNeverReused(t *testing.T) {
	s, ts := newIndexServer(t, Options{})
	bodies := []string{
		"{not json",
		`{"kind":"frobnicate","scenario":{}}`,
		fastJobJSON + "garbage",
	}
	for _, body := range bodies {
		for _, path := range []string{"/v1/run", "/v1/jobs"} {
			resp1, b1 := post(t, ts.URL+path, body)
			resp2, b2 := post(t, ts.URL+path, body)
			if resp1.StatusCode != http.StatusBadRequest || resp2.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %.20q: status %d then %d, want 400", path, body, resp1.StatusCode, resp2.StatusCode)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("%s %.20q: error text changed:\n%s\nvs\n%s", path, body, b1, b2)
			}
		}
	}
	if got := prepareStats(t, ts.URL); got.Reused != 0 || got.Decoded != uint64(4*len(bodies)) {
		t.Errorf("prepare counters %+v, want %d decoded and none reused", got, 4*len(bodies))
	}
	if indexed, tracked := indexSize(t, s); indexed != 0 || tracked != 0 {
		t.Errorf("failed bodies left %d digests and %d states", indexed, tracked)
	}
}

// TestPruneForgetsBodyDigest: a pruned state's digest leaves the index
// with it, so a repeat of its body decodes again (and is answered from
// the result cache, which outlives the registry entry).
func TestPruneForgetsBodyDigest(t *testing.T) {
	s, ts := newIndexServer(t, Options{MaxTracked: 1})
	other := strings.Replace(fastJobJSON, `"variant": "baseline"`, `"variant": "baseline", "width_um": 20`, 1)
	sum := sha256.Sum256([]byte(fastJobJSON))

	_, want := runOK(t, ts.URL, fastJobJSON)
	s.mu.Lock()
	_, known := s.bodies[sum]
	s.mu.Unlock()
	if !known {
		t.Fatal("a prepared body is not indexed")
	}

	runOK(t, ts.URL, other) // prunes the first state
	s.mu.Lock()
	_, known = s.bodies[sum]
	s.mu.Unlock()
	if known {
		t.Error("the pruned state's digest still resolves")
	}
	if indexed, tracked := indexSize(t, s); indexed > tracked {
		t.Errorf("index holds %d digests for %d states", indexed, tracked)
	}

	before := prepareStats(t, ts.URL)
	xc, got := runOK(t, ts.URL, fastJobJSON)
	if after := prepareStats(t, ts.URL); after.Decoded != before.Decoded+1 || after.Reused != before.Reused {
		t.Errorf("prepare counters %+v → %+v, want the repeat decoded", before, after)
	}
	if xc != "hit" || !bytes.Equal(got, want) {
		t.Errorf("repeat after prune: X-Cache %q, answer equal %v", xc, bytes.Equal(got, want))
	}
}

// oversizedJobJSON is a cheap job (a baseline evaluation of a one-cluster
// floorplan) whose canonical form exceeds maxRetainedJobBytes: each die
// carries a grid of small blocks.
func oversizedJobJSON(t testing.TB) string {
	t.Helper()
	var blocks []string
	for i := 0; i < 100; i++ {
		for j := 0; j < 20; j++ {
			blocks = append(blocks, fmt.Sprintf(`{"kind":"core","x_mm":%g,"y_mm":%g,"w_mm":0.08,"h_mm":0.04,"peak_wcm2":%d}`,
				0.1*float64(i), 0.05*float64(j), 40+(i+j)%30))
		}
	}
	die := `{"width_mm":1,"background_wcm2":20,"blocks":[` + strings.Join(blocks, ",") + `]}`
	return `{"kind":"optimize","optimize":{"variant":"baseline"},
	  "scenario":{"segments":1,"floorplan":{"top":` + die + `,"bottom":` + die + `}}}`
}

// TestOversizedJobNotIndexed: a job too large for the registry to
// retain is never indexed, so each of its requests decodes.
func TestOversizedJobNotIndexed(t *testing.T) {
	s, ts := newIndexServer(t, Options{})
	doc := oversizedJobJSON(t)
	p, err := prepareDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	if p.CanonicalSize <= maxRetainedJobBytes {
		t.Fatalf("canonical form is %d bytes, not over the %d retained", p.CanonicalSize, maxRetainedJobBytes)
	}

	_, want := runOK(t, ts.URL, doc)
	xc, got := runOK(t, ts.URL, doc)
	if xc != "hit" || !bytes.Equal(got, want) {
		t.Errorf("repeat: X-Cache %q, answer equal %v", xc, bytes.Equal(got, want))
	}
	if c := prepareStats(t, ts.URL); c.Reused != 0 || c.Decoded != 2 {
		t.Errorf("prepare counters %+v, want 2 decoded and none reused", c)
	}
	if indexed, tracked := indexSize(t, s); indexed != 0 || tracked != 1 {
		t.Errorf("index holds %d digests for %d states, want 0 for 1", indexed, tracked)
	}
}

// prepareDoc decodes and prepares a job document the way a request
// body is.
func prepareDoc(doc string) (*channelmod.PreparedJob, error) {
	var job channelmod.Job
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		return nil, err
	}
	return channelmod.PrepareJob(&job)
}

// BenchmarkRunHit times a cache-hit POST /v1/run of a warmed popular
// design (a genscen floorplan optimize, like perfbench serve's) through
// the handler: "indexed" sends the same bytes every time, so the body
// index answers; "decoded" alternates two whitespace variants, so every
// request decodes, canonicalizes and hashes.
func BenchmarkRunHit(b *testing.B) {
	f, err := genscen.Generate(2)
	if err != nil {
		b.Fatal(err)
	}
	f.Trace, f.Runtime = nil, nil
	f.Solver = "lbfgsb"
	f.EqualPressure = false
	job := &channelmod.Job{Kind: channelmod.JobOptimize, Scenario: *f}
	compact, err := json.Marshal(job)
	if err != nil {
		b.Fatal(err)
	}
	spaced, _ := json.MarshalIndent(job, "", " ")
	tabbed, _ := json.MarshalIndent(job, "", "\t")

	h := New(channelmod.NewEngine(8)).Handler()
	run := func(b *testing.B, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	run(b, compact) // solves once, and indexes the compact bytes
	for _, c := range []struct {
		name   string
		bodies [][]byte
	}{
		{"indexed", [][]byte{compact}},
		{"decoded", [][]byte{spaced, tabbed}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, c.bodies[i%len(c.bodies)])
			}
		})
	}
}
