package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/experiments"
)

// roundResult is one closed round on a fresh fleet.
type roundResult struct {
	Makespan time.Duration
	Ops      []opResult
	Sweep    *sweepView // sweep-fleet only
}

type sweepView struct {
	ID         string    `json:"id"`
	Status     string    `json:"status"`
	Reason     string    `json:"reason"`
	Cells      int       `json:"cells"`
	Executed   int       `json:"executed"`
	Failed     int       `json:"failed"`
	FinishedAt time.Time `json:"finished_at"`
	Results    []struct {
		Source string                     `json:"source"`
		Error  string                     `json:"error"`
		Spec   experiments.ScenarioConfig `json:"spec"`
		Rows   json.RawMessage            `json:"rows"`
	} `json:"results"`
}

// runSweepRound submits the grid as one sweep and waits for it, calling
// onDone as soon as it has finished (before the results are fetched).
// The makespan runs from the submission to the sweep's finished_at; the
// progress poll only notices completion. Every cell is one operation,
// its latency the cell job's submitted_at to finished_at as the job
// views report them (the cells of a fresh server are its jobs
// j000001 onwards).
func runSweepRound(f *fleet, key string, body []byte, onDone func() error) (roundResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var rr roundResult
	start := time.Now()
	var sub struct {
		ID string `json:"id"`
	}
	code, err := f.call(ctx, http.MethodPost, "/v1/sweeps", key, body, &sub)
	if err != nil || code != http.StatusAccepted {
		return rr, fmt.Errorf("submit sweep: status %d, %v", code, err)
	}
	var sv sweepView
	for {
		code, err := f.call(ctx, http.MethodGet, "/v1/sweeps/"+sub.ID, key, nil, &sv)
		if err != nil || code != http.StatusOK {
			return rr, fmt.Errorf("sweep progress: status %d, %v", code, err)
		}
		if sv.Status != "running" {
			break
		}
		time.Sleep(pollEvery)
	}
	if sv.Status != "done" {
		return rr, fmt.Errorf("sweep %s ended %s: %s", sv.ID, sv.Status, sv.Reason)
	}
	rr.Makespan = sv.FinishedAt.Sub(start)
	if err := onDone(); err != nil {
		return rr, err
	}
	code, err = f.call(ctx, http.MethodGet, "/v1/sweeps/"+sub.ID+"/results", key, nil, &sv)
	if err != nil || code != http.StatusOK {
		return rr, fmt.Errorf("sweep results: status %d, %v", code, err)
	}
	rr.Sweep = &sv
	views := map[string]jobView{}
	for i := 1; i <= sv.Executed+sv.Failed; i++ {
		var v jobView
		id := fmt.Sprintf("j%06d", i)
		if code, err := f.call(ctx, http.MethodGet, "/v1/jobs/"+id, key, nil, &v); err != nil || code != http.StatusOK {
			return rr, fmt.Errorf("cell job %s: status %d, %v", id, code, err)
		}
		views[newSpecRef(v.Spec).key] = v
	}
	for _, c := range sv.Results {
		op := opResult{Class: classCold, Tenant: key, Spec: newSpecRef(c.Spec), Latency: math.Inf(1)}
		switch {
		case c.Source == "failed":
			op.Outcome = outcome{Err: c.Error, Reason: "failed"}
		case c.Rows != nil:
			op.Outcome = outcome{OK: true, Rows: c.Rows}
		default:
			op.Outcome = outcome{Reason: "cell " + c.Source}
		}
		if v, ok := views[op.Spec.key]; ok {
			op.View = v
			if op.Outcome.OK {
				op.Latency = msSince(v.SubmittedAt, v.FinishedAt)
			}
		}
		rr.Ops = append(rr.Ops, op)
	}
	return rr, nil
}

// readBack resubmits, after the round's timed phase, the spec of every
// operation that succeeded, times times over, from one sequential
// client per generator connection: each spec is stored by now, so the
// submit response already says done. These are the closed workloads'
// hits, and they check the stored rows as well. Keeping every
// connection busy keeps the server out of idle wake-ups, whose latency
// would otherwise dominate a sub-millisecond figure.
func readBack(f *fleet, key string, ops []opResult, times, clients int) []opResult {
	var todo []specRef
	for i := 0; i < times; i++ {
		for _, op := range ops {
			if op.Outcome.OK {
				todo = append(todo, op.Spec)
			}
		}
	}
	out := make([]opResult, len(todo))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(todo); i += clients {
				r := submitJob(context.Background(), f, key, todo[i], time.Now(), nil)
				r.Class = classHit
				out[i] = r
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runPaperRound submits the round's jobs one after the other, in order
// (so the fleet always receives the MIN shards first), and waits for
// all of them; each job's latency is from its submission to its
// finished_at, the makespan from the first submission to the last
// finished_at.
func runPaperRound(f *fleet, key string, refs []specRef) roundResult {
	var rr roundResult
	start := time.Now()
	rr.Ops = make([]opResult, len(refs))
	var wg sync.WaitGroup
	for i, ref := range refs {
		posted := make(chan struct{})
		wg.Add(1)
		go func(i int, ref specRef, due time.Time) {
			defer wg.Done()
			r := submitJob(context.Background(), f, key, ref, due, posted)
			r.Class = classCold
			rr.Ops[i] = r
		}(i, ref, time.Now())
		<-posted
	}
	wg.Wait()
	last := start
	for _, r := range rr.Ops {
		if r.Done.After(last) {
			last = r.Done
		}
	}
	rr.Makespan = last.Sub(start)
	return rr
}
