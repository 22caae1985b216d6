package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	channelmod "repro"
)

// Event stream: GET /v1/jobs/{id}/events delivers one message per
// completed point of a composite job (a compare's three designs, sweep
// rows, arch-experiment cases, nested design solves), in point order,
// followed by exactly one terminal message ("done" or "error").
// Non-composite jobs emit the terminal message only.
//
// While the submission executes, subscribers follow the live feed the
// executor publishes into — points arrive as they are solved, each with
// its own content address and cache provenance. After completion the
// feed is dropped and the stream is replayed through the engine: a
// cached parent replays instantly with per-point "hit" provenance, and
// an address whose result the LRU has since evicted is re-executed,
// streaming live again.
//
// The default framing is Server-Sent Events (`event:`/`data:` lines);
// `?format=ndjson` (or an Accept header naming application/x-ndjson)
// selects newline-delimited JSON objects tagged with a "type" field.

// Event names of the stream.
const (
	eventPoint = "point"
	eventDone  = "done"
	eventError = "error"
)

// donePayload is the terminal message of a successful stream.
func donePayload(hash string, info channelmod.JobInfo) []byte {
	b, _ := json.Marshal(map[string]string{"hash": hash, "cache": info.CacheString()})
	return b
}

// errorPayload is the terminal message of a failed stream.
func errorPayload(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}

// feed is the live event log of one executing submission: the executor
// appends, any number of subscribers replay and follow.
type feed struct {
	mu       sync.Mutex
	points   [][]byte // marshaled PointEventJSON, in point order
	terminal []byte   // done/error payload; nil while running
	termName string
	wake     chan struct{} // closed and replaced on every change
}

func newFeed() *feed { return &feed{wake: make(chan struct{})} }

func (f *feed) appendPoint(ev *channelmod.JobPointEventJSON) {
	b, _ := json.Marshal(ev)
	f.mu.Lock()
	f.points = append(f.points, b)
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

func (f *feed) finish(name string, payload []byte) {
	f.mu.Lock()
	f.termName, f.terminal = name, payload
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// snapshot returns the points not yet seen by a subscriber at offset
// `from`, the terminal message (nil while running), and a channel that
// closes on the next change.
func (f *feed) snapshot(from int) (points [][]byte, termName string, terminal []byte, wake chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < len(f.points) {
		points = f.points[from:]
	}
	return points, f.termName, f.terminal, f.wake
}

// eventWriter frames stream messages as SSE or NDJSON and flushes after
// every message so points reach the client while later points are still
// being computed.
type eventWriter struct {
	w      http.ResponseWriter
	flush  func()
	ndjson bool
}

func newEventWriter(w http.ResponseWriter, r *http.Request) *eventWriter {
	ndjson := r.URL.Query().Get("format") == "ndjson" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	}
	ew := &eventWriter{w: w, ndjson: ndjson, flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		ew.flush = f.Flush
	}
	return ew
}

// write emits one message; payload must be a JSON object.
func (ew *eventWriter) write(name string, payload []byte) error {
	var err error
	if ew.ndjson {
		// {"type":"point",...payload fields...}
		line := append([]byte(`{"type":"`+name+`",`), payload[1:]...)
		if string(payload) == "{}" {
			line = []byte(`{"type":"` + name + `"}`)
		}
		_, err = fmt.Fprintf(ew.w, "%s\n", line)
	} else {
		_, err = fmt.Fprintf(ew.w, "event: %s\ndata: %s\n\n", name, payload)
	}
	ew.flush()
	return err
}

// handleEvents streams a submission's per-point completions.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	st, ok := s.jobs[id]
	var (
		fd     *feed
		prep   *channelmod.PreparedJob
		status jobStatus
		errMsg string
	)
	if ok {
		fd, prep, status, errMsg = st.feed, st.prep, st.Status, st.Error
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}

	// A replay of an address the cache no longer holds is a fresh
	// synchronous execution and needs a run slot, exactly like
	// POST /v1/run; a shed subscriber gets a clean 429 before any
	// stream headers go out. Cached replays and live follows are reads.
	var release func()
	if fd == nil && status != statusFailed && prep != nil && !s.draining.Load() {
		if _, cached := s.eng.Lookup(prep.Hash); !cached {
			if !s.runLim.admit() {
				s.shedWith429(w, s.runLim, "run")
				return
			}
			rel, got := s.runLim.wait(r.Context())
			if !got {
				// Client gave up while queued; nothing to answer.
				return
			}
			release = rel
		}
	}
	if release != nil {
		defer release()
	}

	finish, live := s.trackStream()
	if !live {
		// Draining: answer with a terminal message instead of opening a
		// stream Shutdown would have to wait on.
		newEventWriter(w, r).write(eventError, errorPayload(errDraining))
		return
	}
	defer finish()

	ew := newEventWriter(w, r)
	if fd != nil {
		s.followFeed(r, ew, fd)
		return
	}
	switch {
	case status == statusFailed:
		ew.write(eventError, errorPayload(fmt.Errorf("%s", errMsg)))
	case prep != nil:
		// No live feed: replay through the engine. A cached parent
		// replays instantly with per-point hit provenance; an evicted
		// address re-executes and streams live. Like /v1/run, the
		// execution is detached from the request context (scoped to the
		// daemon's lifetime instead) — this caller may become the
		// singleflight leader, and a disconnecting subscriber must not
		// abort a solve that coalesced followers wait on. On disconnect
		// the stream just stops writing; the job runs to completion and
		// populates the cache.
		dead, forced := false, false
		s.running.Add(1)
		_, info, err := s.eng.RunStreamPrepared(s.baseCtx, prep,
			func(ev channelmod.JobPointEvent) error {
				if dead {
					return nil
				}
				select {
				case <-s.drainForce:
					// Shutdown deadline hit mid-replay: flush a terminal
					// message now and detach the stream from the drain
					// accounting; the solve itself keeps running under
					// baseCtx and still populates the cache.
					ew.write(eventError, errorPayload(errDraining))
					dead, forced = true, true
					finish()
					return nil
				default:
				}
				b, merr := json.Marshal(ev.JSON())
				if merr != nil {
					return merr
				}
				if ew.write(eventPoint, b) != nil || r.Context().Err() != nil {
					dead = true
				}
				return nil
			})
		s.running.Add(-1)
		if err != nil {
			s.failed.Add(1)
			s.setStatus(prep.Hash, statusFailed, err)
			if !forced {
				ew.write(eventError, errorPayload(err))
			}
			return
		}
		// A pure cache-hit replay is a read: only a real (re-)execution
		// updates the job counters and status.
		if !info.CacheHit {
			s.done.Add(1)
			s.setStatus(prep.Hash, statusDone, nil)
		}
		if !forced {
			ew.write(eventDone, donePayload(prep.Hash, info))
		}
	default:
		// Oversized to retain (see retainable), or raced a registry
		// prune.
		ew.write(eventError, errorPayload(fmt.Errorf("job %q has no replayable form; resubmit it", id)))
	}
}

// followFeed replays the feed's history and follows it live until the
// terminal message, client disconnect, or the shutdown drain deadline
// (which flushes a terminal message so no subscriber hangs on a closing
// daemon).
func (s *Server) followFeed(r *http.Request, ew *eventWriter, fd *feed) {
	seen := 0
	for {
		points, termName, terminal, wake := fd.snapshot(seen)
		for _, b := range points {
			if ew.write(eventPoint, b) != nil {
				return
			}
			seen++
		}
		if terminal != nil {
			ew.write(termName, terminal)
			return
		}
		select {
		case <-wake:
		case <-s.drainForce:
			ew.write(eventError, errorPayload(errDraining))
			return
		case <-r.Context().Done():
			return
		}
	}
}
