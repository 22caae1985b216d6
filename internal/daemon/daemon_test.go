package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	channelmod "repro"
	"repro/internal/scenario/scenariotest"
)

// fastJobJSON is a single-solve job document (baseline evaluation of a
// two-channel scenario), cheap enough for handler tests.
const fastJobJSON = `{
  "kind": "optimize",
  "scenario": {
    "name": "daemon-test",
    "segments": 2,
    "channels": [
      {"top_wcm2": [50, 50], "bottom_wcm2": [50, 50]},
      {"top_wcm2": [30, 180], "bottom_wcm2": [30, 30]}
    ]
  },
  "optimize": {"variant": "baseline"}
}`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(channelmod.NewEngine(8)).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSyncRunCacheHit: POST /v1/run computes once and serves the
// resubmission bit-identically from the cache.
func TestSyncRunCacheHit(t *testing.T) {
	ts := newTestServer(t)

	resp1, body1 := post(t, ts.URL+"/v1/run", fastJobJSON)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", resp1.StatusCode, body1)
	}
	if xc := resp1.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first run X-Cache = %q, want miss", xc)
	}

	resp2, body2 := post(t, ts.URL+"/v1/run", fastJobJSON)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d: %s", resp2.StatusCode, body2)
	}
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("second run X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached response is not bit-identical to the computed one")
	}

	var payload struct {
		Kind     string `json:"kind"`
		Hash     string `json:"hash"`
		Optimize *struct {
			GradientK float64 `json:"gradient_k"`
		} `json:"optimize"`
	}
	if err := json.Unmarshal(body1, &payload); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if payload.Kind != "optimize" || payload.Hash == "" || payload.Optimize == nil {
		t.Errorf("unexpected payload: %s", body1)
	}
	if !(payload.Optimize.GradientK > 0) {
		t.Errorf("non-positive gradient %v", payload.Optimize.GradientK)
	}
}

// TestSubmitPollFetch: the async path — submit, poll until done, fetch
// the cached result by content address.
func TestSubmitPollFetch(t *testing.T) {
	ts := newTestServer(t)

	resp, body := post(t, ts.URL+"/v1/jobs", fastJobJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response %s (err %v)", body, err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" {
			t.Fatalf("job failed: %s", body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %q after 30s", st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, body = get(t, ts.URL+"/v1/results/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(st.ID)) {
		t.Errorf("result does not echo its content address: %s", body)
	}

	// Idempotent resubmission of a known-done job.
	resp, body = post(t, ts.URL+"/v1/jobs", fastJobJSON)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("resubmit: status %d (%s), want 200", resp.StatusCode, body)
	}

	// Stats reflect the lifecycle.
	resp, body = get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var stats struct {
		Cache struct {
			Misses uint64 `json:"misses"`
		} `json:"cache"`
		Jobs struct {
			Submitted uint64 `json:"submitted"`
			Done      uint64 `json:"done"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Misses != 1 || stats.Jobs.Done != 1 || stats.Jobs.Submitted != 1 {
		t.Errorf("stats = %s, want 1 miss / 1 submitted / 1 done", body)
	}
}

// TestResubmitAfterEviction: a done job whose result the LRU evicted is
// re-executed by POST /v1/jobs instead of pointing at a dangling
// result_url forever.
func TestResubmitAfterEviction(t *testing.T) {
	ts := httptest.NewServer(New(channelmod.NewEngine(1)).Handler())
	t.Cleanup(ts.Close)

	submitAndWait := func(body string) string {
		t.Helper()
		resp, b := post(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
		}
		var st struct{ ID, Status string }
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for st.Status != "done" {
			if st.Status == "failed" || time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", st.ID, st.Status)
			}
			time.Sleep(10 * time.Millisecond)
			_, b = get(t, ts.URL+"/v1/jobs/"+st.ID)
			if err := json.Unmarshal(b, &st); err != nil {
				t.Fatal(err)
			}
		}
		return st.ID
	}

	idA := submitAndWait(fastJobJSON)
	// A different job evicts A's result from the capacity-1 cache.
	other := strings.Replace(fastJobJSON, `"variant": "baseline"`, `"variant": "baseline", "width_um": 20`, 1)
	submitAndWait(other)
	if resp, _ := get(t, ts.URL+"/v1/results/"+idA); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted result still served: status %d", resp.StatusCode)
	}

	// Resubmission must recompute (202), not claim done.
	resp, b := post(t, ts.URL+"/v1/jobs", fastJobJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after eviction: status %d (%s), want 202", resp.StatusCode, b)
	}
	if id := submitAndWait(fastJobJSON); id != idA {
		t.Fatalf("recomputed job changed address: %s vs %s", id, idA)
	}
	if resp, _ := get(t, ts.URL+"/v1/results/"+idA); resp.StatusCode != http.StatusOK {
		t.Errorf("recomputed result not served: status %d", resp.StatusCode)
	}
}

// TestBadRequests: malformed or unknown inputs answer 4xx, not 5xx.
func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)

	if resp, _ := post(t, ts.URL+"/v1/run", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/run", `{"kind":"frobnicate","scenario":{}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/v1/run", `{"kind":"compare","scenario":{},"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/results/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d, want 200", resp.StatusCode)
	}
}

// TestFixtureChecksAgree: the scenario of every job document these tests
// send that decodes passes the build-free checks job preparation runs
// exactly when it passes the builders, with the same error text.
func TestFixtureChecksAgree(t *testing.T) {
	docs := []string{
		fastJobJSON,
		sweepJobJSON("0.2, 0.4"),
		`{"kind":"frobnicate","scenario":{}}`,
		generatedSweepJSON(t, 11),
		generatedSweepJSON(t, 77),
	}
	for i, doc := range docs {
		var job channelmod.Job
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&job); err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		if err := scenariotest.CheckAgreement(&job.Scenario); err != nil {
			t.Errorf("document %d: %v", i, err)
		}
	}
}
