package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	channelmod "repro"
)

// TestMain is the package's goroutine-leak gate: every test must leave
// no daemon goroutines behind (streams, background executions, limiter
// waiters). The count is taken after a settling window because HTTP
// keep-alive and just-finished solves unwind asynchronously.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before+2 {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines at exit, %d at start\n", n, before)
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// uniqueSweepJSON builds a sweep document distinct per (seq, points):
// distinct flow values give distinct content addresses, so every
// submission is a real execution rather than a cache hit.
func uniqueSweepJSON(seq, points int) string {
	flows := make([]string, points)
	for i := range flows {
		flows[i] = fmt.Sprintf("%.4f", 0.11+0.01*float64(seq)+0.0007*float64(i))
	}
	return sweepJobJSON(strings.Join(flows, ", "))
}

// pollUntilGone polls a job until it reports done, or 404s — which for
// never-failing jobs also proves completion, because the registry only
// ever prunes completed states.
func pollUntilGone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, base+"/v1/jobs/"+id)
		if resp.StatusCode == http.StatusNotFound {
			return
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, body)
		}
		var st struct{ Status, Error string }
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case "done":
			return
		case "failed":
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 30s", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPruneEvictsLeastRecentlyCompleted pins the registry's eviction
// order: the prune must drop the state that *completed* longest ago,
// not the one *inserted* longest ago. Insertion order would evict a
// job the moment it completes (exactly the state its submitter is
// about to poll) whenever it was submitted early but finished last.
func TestPruneEvictsLeastRecentlyCompleted(t *testing.T) {
	s := NewOptions(context.Background(), channelmod.NewEngine(8), Options{MaxTracked: 2})

	add := func(hash string) {
		s.mu.Lock()
		s.track(hash, &jobState{ID: hash, Status: statusRunning})
		s.mu.Unlock()
	}
	add("early")
	add("late")
	// "late" completes first, then "early": completion order is now
	// [late, early] even though insertion order was [early, late].
	s.setStatus("late", statusDone, nil)
	s.setStatus("early", statusDone, nil)

	// A third state forces one eviction.
	add("next")

	s.mu.Lock()
	_, lateAlive := s.jobs["late"]
	_, earlyAlive := s.jobs["early"]
	s.mu.Unlock()
	if lateAlive || !earlyAlive {
		t.Fatalf("prune kept late=%v early=%v; want the least-recently-completed (late) evicted", lateAlive, earlyAlive)
	}
}

// TestRegistryPruneHammer race-proves the registry and its body index:
// concurrent submits, resubmits, sync runs, polls and stats reads of a
// few job bodies, each sent again and again, against a registry small
// enough that the pruning path runs constantly, so body-index lookups
// race the prune. Run with -race; the functional assertions are that
// every request succeeds and every submission completes, and that the
// index then holds no more digests than the registry holds states, each
// resolving to the state it indexes.
func TestRegistryPruneHammer(t *testing.T) {
	eng := channelmod.NewEngine(64)
	s := NewOptions(context.Background(), eng, Options{
		MaxTracked: 4,
		Limits:     Limits{RunInflight: 8, RunQueue: Unlimited, SubmitInflight: 8, SubmitQueue: Unlimited},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Eight bodies, each sent by three workers: twice to POST /v1/jobs
	// and once to POST /v1/run per round.
	const workers, rounds, distinct = 6, 4, 8
	bodies := make([]string, distinct)
	for i := range bodies {
		bodies[i] = uniqueSweepJSON(i, 1)
	}
	submit := func(body string) (string, error) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		var st struct{ ID string }
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if derr != nil || (resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK) || st.ID == "" {
			return "", fmt.Errorf("submit: status %d decode %v", resp.StatusCode, derr)
		}
		return st.ID, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				body := bodies[(w+j*workers)%distinct]
				id, err := submit(body)
				if err != nil {
					errs <- err
					return
				}
				// Interleave polls with resubmissions and stats/metrics
				// reads so the prune races real registry readers.
				deadline := time.Now().Add(30 * time.Second)
				for {
					r2, err := http.Get(ts.URL + "/v1/jobs/" + id)
					if err != nil {
						errs <- err
						return
					}
					var ps struct{ Status string }
					json.NewDecoder(r2.Body).Decode(&ps)
					r2.Body.Close()
					if r2.StatusCode == http.StatusNotFound || ps.Status == "done" {
						break
					}
					if ps.Status == "failed" {
						errs <- fmt.Errorf("job %s failed", id)
						return
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("job %s stuck", id)
						return
					}
					if _, err := submit(body); err != nil {
						errs <- err
						return
					}
					if r3, err := http.Get(ts.URL + "/v1/stats"); err == nil {
						r3.Body.Close()
					}
				}
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("run: status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	_, body := get(t, ts.URL+"/v1/stats")
	var stats struct {
		Jobs struct {
			Submitted, Done, Failed uint64
			Tracked                 int
		} `json:"jobs"`
		Prepare prepareCounts `json:"prepare"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	// Every sync run completes, and so does at least the first
	// submission of each body.
	if stats.Jobs.Failed != 0 || stats.Jobs.Done < workers*rounds+distinct {
		t.Errorf("failed = %d, done = %d, want 0 and >= %d: %s", stats.Jobs.Failed, stats.Jobs.Done, workers*rounds+distinct, body)
	}
	if stats.Jobs.Tracked > 4+workers {
		t.Errorf("tracked = %d, want <= maxTracked + inflight slack: %s", stats.Jobs.Tracked, body)
	}
	t.Logf("prepare: %d reused, %d decoded", stats.Prepare.Reused, stats.Prepare.Decoded)
	if stats.Prepare.Reused == 0 {
		t.Errorf("no body was answered from the index: %s", body)
	}
	if indexed, tracked := indexSize(t, s); indexed > tracked {
		t.Errorf("index holds %d digests for %d tracked states", indexed, tracked)
	}
}

// TestSubmitQueueSheds pins the deterministic shed: with one submit
// slot and a one-deep queue, the third concurrent submission must get
// 429 with a Retry-After while the first two complete normally.
func TestSubmitQueueSheds(t *testing.T) {
	s := NewOptions(context.Background(), channelmod.NewEngine(64), Options{
		Limits: Limits{RunInflight: 8, RunQueue: Unlimited, SubmitInflight: 1, SubmitQueue: 1},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// X executes (slot), Y queues; both are slow enough (hundreds of
	// sweep points) that Z arrives while the queue is still full.
	jobX, jobY, jobZ := uniqueSweepJSON(100, 200), uniqueSweepJSON(101, 200), uniqueSweepJSON(102, 1)
	respX, bodyX := post(t, ts.URL+"/v1/jobs", jobX)
	respY, bodyY := post(t, ts.URL+"/v1/jobs", jobY)
	if respX.StatusCode != http.StatusAccepted || respY.StatusCode != http.StatusAccepted {
		t.Fatalf("setup submits: %d %d (%s %s)", respX.StatusCode, respY.StatusCode, bodyX, bodyY)
	}
	respZ, bodyZ := post(t, ts.URL+"/v1/jobs", jobZ)
	if respZ.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d (%s), want 429", respZ.StatusCode, bodyZ)
	}
	if ra := respZ.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without usable Retry-After %q", ra)
	}

	var idX, idY struct{ ID string }
	json.Unmarshal(bodyX, &idX)
	json.Unmarshal(bodyY, &idY)
	pollUntilGone(t, ts.URL, idX.ID)
	pollUntilGone(t, ts.URL, idY.ID)

	// Capacity freed: the shed job is accepted on retry.
	if resp, b := post(t, ts.URL+"/v1/jobs", jobZ); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after drain: status %d (%s), want 202", resp.StatusCode, b)
	}

	_, body := get(t, ts.URL+"/v1/metrics")
	var met struct {
		Admission map[string]struct {
			Shed uint64 `json:"shed"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body, &met); err != nil {
		t.Fatal(err)
	}
	if met.Admission["submit"].Shed != 1 {
		t.Errorf("metrics submit shed = %d, want 1", met.Admission["submit"].Shed)
	}
}

// TestRunOverloadBurst drives POST /v1/run at 4x the admission
// capacity: some requests are shed with 429 + Retry-After, the
// admitted ones all complete, and the daemon recovers afterwards.
func TestRunOverloadBurst(t *testing.T) {
	s := NewOptions(context.Background(), channelmod.NewEngine(256), Options{
		Limits: Limits{RunInflight: 1, RunQueue: 1, SubmitInflight: 8, SubmitQueue: Unlimited},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Capacity is 2 (1 executing + 1 queued); burst 8 distinct slow
	// jobs. The race between bursts and completions is real, so retry
	// a few fresh bursts until one observes a shed (each attempt is
	// overwhelmingly likely to).
	var oks, sheds int
	for attempt := 0; attempt < 5 && sheds == 0; attempt++ {
		oks, sheds = 0, 0
		const burst = 8
		results := make(chan *http.Response, burst)
		for i := 0; i < burst; i++ {
			go func(i int) {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json",
					strings.NewReader(uniqueSweepJSON(200+attempt*burst+i, 120)))
				if err != nil {
					results <- nil
					return
				}
				resp.Body.Close()
				results <- resp
			}(i)
		}
		for i := 0; i < burst; i++ {
			resp := <-results
			if resp == nil {
				t.Fatal("run request error")
			}
			switch resp.StatusCode {
			case http.StatusOK:
				oks++
			case http.StatusTooManyRequests:
				sheds++
				if ra := resp.Header.Get("Retry-After"); ra == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Fatalf("burst run: status %d, want 200 or 429", resp.StatusCode)
			}
		}
	}
	if oks < 1 || sheds < 1 {
		t.Fatalf("burst: %d ok / %d shed, want at least one of each", oks, sheds)
	}

	// Recovery: slots drained, a fresh run is admitted and served.
	if resp, b := post(t, ts.URL+"/v1/run", uniqueSweepJSON(999, 1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-burst run: status %d (%s), want 200", resp.StatusCode, b)
	}
}

// TestSSEDisconnectDoesNotAbortSolve: a subscriber that vanishes
// mid-stream must not cancel the solve — the job still runs to
// completion and its result is fetchable.
func TestSSEDisconnectDoesNotAbortSolve(t *testing.T) {
	ts := httptest.NewServer(New(channelmod.NewEngine(256)).Handler())
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/jobs", uniqueSweepJSON(300, 150))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct{ ID string }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Subscribe, read one point, hang up.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := r2.Body.Read(buf); err != nil {
		t.Fatalf("read first stream byte: %v", err)
	}
	cancel()
	r2.Body.Close()

	pollUntilGone(t, ts.URL, st.ID)
	if r3, _ := get(t, ts.URL+"/v1/results/"+st.ID); r3.StatusCode != http.StatusOK {
		t.Errorf("result after subscriber disconnect: status %d, want 200", r3.StatusCode)
	}
}

// TestSlowConsumerReceivesAllPoints: a subscriber that reads far
// slower than the sweep solves still receives every point, in order,
// plus the terminal message — the feed retains history, so laggards
// replay instead of dropping events.
func TestSlowConsumerReceivesAllPoints(t *testing.T) {
	ts := httptest.NewServer(New(channelmod.NewEngine(64)).Handler())
	t.Cleanup(ts.Close)

	const points = 6
	resp, body := post(t, ts.URL+"/v1/jobs", uniqueSweepJSON(400, points))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct{ ID string }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	r2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	// Read byte-at-a-time with pauses: by the time the consumer reaches
	// the later points the sweep has long finished.
	var raw []byte
	one := make([]byte, 1)
	for {
		n, err := r2.Body.Read(one)
		if n > 0 {
			raw = append(raw, one[0])
			if one[0] == '\n' {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if err != nil {
			break
		}
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != points+1 {
		t.Fatalf("%d stream lines, want %d points + terminal: %q", len(lines), points, lines)
	}
	for i, line := range lines[:points] {
		var pt struct {
			Type  string `json:"type"`
			Index int    `json:"index"`
		}
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if pt.Type != "point" || pt.Index != i {
			t.Fatalf("line %d = %+v, want in-order point %d", i, pt, i)
		}
	}
	if !strings.Contains(lines[points], `"type":"done"`) {
		t.Fatalf("terminal line %q, want done", lines[points])
	}
}

// TestEventsReplayAfterEviction: subscribing to a done job whose
// result the LRU has evicted re-executes it through the run limiter
// and streams live — the stream still ends in done.
func TestEventsReplayAfterEviction(t *testing.T) {
	ts := httptest.NewServer(New(channelmod.NewEngine(1)).Handler())
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/jobs", sweepJobJSON("0.2, 0.4"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct{ ID string }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	pollUntilGone(t, ts.URL, st.ID)

	// Evict the sweep's parent from the capacity-1 cache.
	if r2, b := post(t, ts.URL+"/v1/run", fastJobJSON); r2.StatusCode != http.StatusOK {
		t.Fatalf("evictor run: status %d: %s", r2.StatusCode, b)
	}
	if r3, _ := get(t, ts.URL+"/v1/results/"+st.ID); r3.StatusCode != http.StatusNotFound {
		t.Fatal("parent still cached; eviction setup failed")
	}

	events := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(events) != 3 || events[2].name != "done" {
		t.Fatalf("replay after eviction: %+v, want 2 points + done", events)
	}
}

// TestShutdownDrain: Shutdown refuses new work with 503 and flushes
// in-flight event streams — a live subscriber receives a terminal
// message instead of a silently dropped connection, and Shutdown
// returns once every stream has flushed.
func TestShutdownDrain(t *testing.T) {
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	s := NewContext(baseCtx, channelmod.NewEngine(1024))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/jobs", uniqueSweepJSON(500, 400))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st struct{ ID string }
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Live subscriber: read events until the stream ends, report the
	// terminal event name.
	terminal := make(chan string, 1)
	go func() {
		events := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
		if len(events) == 0 {
			terminal <- ""
			return
		}
		terminal <- events[len(events)-1].name
	}()
	// Wait for the stream to register before draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		js, ok := s.jobs[st.ID]
		live := ok && js.feed != nil
		s.mu.Unlock()
		if live || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	shutCtx, cancelShut := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShut()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	select {
	case name := <-terminal:
		// "error" (drain forced mid-solve) or "done" (solve won the
		// race) are both terminal; a vanished stream is the bug.
		if name != eventError && name != eventDone {
			t.Fatalf("subscriber terminal event %q, want error or done", name)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber still waiting after Shutdown returned")
	}

	// Draining daemon refuses new work explicitly.
	if r2, _ := post(t, ts.URL+"/v1/jobs", fastJobJSON); r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", r2.StatusCode)
	}
	if r3, _ := post(t, ts.URL+"/v1/run", fastJobJSON); r3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("run while draining: status %d, want 503", r3.StatusCode)
	}
	// A new subscriber gets an immediate terminal message, not a hang.
	events := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(events) == 0 {
		t.Fatal("post-drain subscriber got no terminal event")
	}
}
