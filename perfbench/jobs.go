package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	channelmod "repro"
)

// planJob is one job of a workload plan, kept as the JSON document a
// user would submit.
type planJob struct {
	label string
	body  []byte
	// stream submits the job through Engine.RunStream and keeps its
	// per-point events.
	stream bool
}

func newPlanJob(label string, j *channelmod.Job) (planJob, error) {
	b, err := json.Marshal(j)
	if err != nil {
		return planJob{}, fmt.Errorf("plan %s: %w", label, err)
	}
	return planJob{label: label, body: b, stream: j.Kind == channelmod.JobSweep}, nil
}

// decodeJob parses a job document the way chanmodd does: unknown fields
// are errors.
func decodeJob(body []byte) (*channelmod.Job, error) {
	var job channelmod.Job
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		return nil, fmt.Errorf("decode job: %w", err)
	}
	return &job, nil
}

// preparedJob is a plan job decoded and bound to its content address.
type preparedJob struct {
	planJob
	job  *channelmod.Job
	prep *channelmod.PreparedJob
}

// prepareAll decodes and prepares every job of a plan.
func prepareAll(jobs []planJob) ([]preparedJob, error) {
	out := make([]preparedJob, len(jobs))
	for i, pj := range jobs {
		job, err := decodeJob(pj.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pj.label, err)
		}
		p, err := channelmod.PrepareJob(job)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pj.label, err)
		}
		out[i] = preparedJob{planJob: pj, job: job, prep: p}
	}
	return out, nil
}

// engineLayer times the engine's request-path stages on a workload's
// own jobs — decode, prepare (canonicalize and hash), a cache hit, and
// encoding the result to wire JSON — and records their medians, plus
// the engine's cache counters and solve-latency median.
func engineLayer(ctx context.Context, tr *tracer, eng *channelmod.Engine, jobs []planJob) error {
	if tr == nil {
		return nil
	}
	// The counters first: the hits timed below must not count in them.
	recordCacheStats(tr, eng)
	var dec, prep, hit, enc []time.Duration
	for i, pj := range jobs {
		sp := tr.start("engine.decode", nil, -1-i)
		job, err := decodeJob(pj.body)
		dec = append(dec, sp.end())
		if err != nil {
			return err
		}
		sp = tr.start("engine.prepare", nil, -1-i)
		p, err := channelmod.PrepareJob(job)
		prep = append(prep, sp.end())
		if err != nil {
			return err
		}
		if _, ok := eng.Lookup(p.Hash); !ok {
			continue // evicted: a lookup here would time a solve, not a hit
		}
		sp = tr.start("engine.hit", nil, -1-i)
		res, info, err := eng.RunPrepared(ctx, p)
		d := sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", pj.label, err)
		}
		if info.CacheHit {
			hit = append(hit, d)
		}
		sp = tr.start("engine.encode", nil, -1-i)
		_, err = json.Marshal(res.JSON())
		enc = append(enc, sp.end())
		if err != nil {
			return fmt.Errorf("%s: encode: %w", pj.label, err)
		}
	}
	us := func(ds []time.Duration) float64 { return float64(medianDuration(ds)) / 1e3 }
	tr.set("engine.decode_us", us(dec))
	tr.set("engine.prepare_us", us(prep))
	tr.set("engine.hit_us", us(hit))
	tr.set("engine.encode_us", us(enc))
	return nil
}

// recordCacheStats records the engine's cache counters and the median of
// its solve-latency histogram (the program's own figure).
func recordCacheStats(tr *tracer, eng *channelmod.Engine) {
	st := eng.Stats()
	if total := st.Hits + st.Misses + st.Coalesced; total > 0 {
		tr.set("engine.hit_ratio", float64(st.Hits)/float64(total))
	}
	tr.set("engine.misses", float64(st.Misses))
	tr.set("engine.evictions", float64(st.Evictions))
	tr.set("engine.exec_p50_ms", float64(eng.ExecLatency().Quantile(0.5))/1e6)
}

// sortedKeys returns a map's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
