package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// jobView is the part of GET /v1/jobs/{id} the benchmark reads. Rows
// stay raw so the correctness check compares the server's bytes.
type jobView struct {
	ID          string                     `json:"id"`
	Status      string                     `json:"status"`
	Error       string                     `json:"error"`
	Source      string                     `json:"source"`
	Spec        experiments.ScenarioConfig `json:"spec"`
	Rows        json.RawMessage            `json:"rows"`
	SubmittedAt time.Time                  `json:"submitted_at"`
	StartedAt   time.Time                  `json:"started_at"`
	FinishedAt  time.Time                  `json:"finished_at"`
}

func (v jobView) terminal() bool {
	return v.Status == "done" || v.Status == "failed" || v.Status == "cancelled"
}

// jobTimes is the server's stage timing of one executed job.
type jobTimes struct {
	QueueWait, Exec time.Duration
}

func (v jobView) times() (jobTimes, bool) {
	if v.StartedAt.IsZero() || v.FinishedAt.IsZero() {
		return jobTimes{}, false
	}
	return jobTimes{QueueWait: v.StartedAt.Sub(v.SubmittedAt), Exec: v.FinishedAt.Sub(v.StartedAt)}, true
}

// opResult is what one operation returned, kept for the correctness
// check and the latency figures.
type opResult struct {
	Class   string
	Tenant  string // the submitting tenant's key
	Spec    specRef
	Due     time.Time // when the operation was scheduled
	Latency float64   // ms from due (or submission) to the result; +Inf if refused or failed
	Late    float64   // ms the generator sent after the due time
	Done    time.Time
	Outcome outcome
	View    jobView
}

// Cold-job completion is read from the job view's finished_at; the
// poll only has to notice it, so its period sets no latency floor.
const (
	pollFirst = 5 * time.Millisecond
	pollEvery = 10 * time.Millisecond
	opTimeout = 90 * time.Second
)

// submitJob posts spec for tenant key and follows the job to a
// terminal state. due is when the operation was scheduled; latency is
// measured from it to the submit response (a job already done there
// was served from the store) or else to the server's finished_at.
// posted, when non-nil, is closed once the submission has been answered.
// A job already done at submission is not read here: its view (and
// rows) is fetched by readViews after the timed phase, which keeps that
// request off the generator's connections while latency is measured.
func submitJob(ctx context.Context, f *fleet, key string, ref specRef, due time.Time, posted chan struct{}) opResult {
	res := opResult{Tenant: key, Spec: ref, Due: due, Latency: math.Inf(1)}
	res.Late = msSince(due, time.Now())
	var sub struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	code, err := f.call(ctx, http.MethodPost, "/v1/jobs", key, ref.body, &sub)
	respAt := time.Now()
	if posted != nil {
		close(posted)
	}
	switch {
	case err != nil:
		res.Outcome = outcome{Reason: "transport: " + err.Error()}
		return res
	case code == http.StatusTooManyRequests:
		res.Outcome = outcome{Reason: "refused: 429"}
		return res
	case code == http.StatusServiceUnavailable:
		res.Outcome = outcome{Reason: "refused: 503"}
		return res
	case code != http.StatusAccepted:
		res.Outcome = outcome{Reason: fmt.Sprintf("refused: %d", code)}
		return res
	}
	if sub.Status == "done" {
		res.View.ID = sub.ID
		res.Done = respAt
		res.Latency = msSince(due, res.Done)
		return res
	}
	time.Sleep(pollFirst)
	v, err := followJob(ctx, f, key, sub.ID)
	if err != nil {
		res.Outcome = outcome{Reason: err.Error()}
		return res
	}
	res.View = v
	res.Outcome = viewOutcome(v)
	if v.Status != "done" {
		return res
	}
	res.Done = v.FinishedAt
	res.Latency = msSince(due, res.Done)
	return res
}

// readViews fetches the view of every operation whose job was done at
// submission, for its rows; conns clients share the work.
func readViews(f *fleet, ops []opResult, conns int) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += conns {
				op := &ops[i]
				if op.View.ID == "" || op.View.Status != "" {
					continue
				}
				v, err := followJob(context.Background(), f, op.Tenant, op.View.ID)
				if err != nil {
					op.Outcome = outcome{Reason: err.Error()}
					op.Latency = math.Inf(1)
					continue
				}
				op.View = v
				op.Outcome = viewOutcome(v)
			}
		}(c)
	}
	wg.Wait()
}

// followJob reads a job's view until it is terminal.
func followJob(ctx context.Context, f *fleet, key, id string) (jobView, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	for {
		var v jobView
		code, err := f.call(ctx, http.MethodGet, "/v1/jobs/"+id, key, nil, &v)
		if err != nil {
			return v, fmt.Errorf("transport: %w", err)
		}
		if code != http.StatusOK {
			return v, fmt.Errorf("job view: %d", code)
		}
		if v.terminal() {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, fmt.Errorf("timeout: job %s still %s", id, v.Status)
		case <-time.After(pollEvery):
		}
	}
}

func viewOutcome(v jobView) outcome {
	switch v.Status {
	case "done":
		return outcome{OK: true, Rows: v.Rows}
	case "failed":
		return outcome{Err: v.Error, Reason: "failed"}
	default:
		return outcome{Reason: "job " + v.Status}
	}
}

func msSince(from, to time.Time) float64 {
	return float64(to.Sub(from)) / float64(time.Millisecond)
}

// waitUntil returns at t, within tens of microseconds. The runtime's
// timers wake up to a millisecond late, which would put most of a hit's
// latency on the generator, and spinning for that long would take CPU
// from the fleet: it sleeps with the runtime to within 2 ms, with the
// kernel's high-resolution timer to within 150 us, and spins the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t) - 150*time.Microsecond; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only means a longer spin
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openRun is the timed phase of jobs-open on a ready fleet.
type openRun struct {
	Ops      []opResult
	Makespan time.Duration
}

// runOpenLoop sends every scheduled operation at its due time, each
// from its own goroutine so a slow response never delays a later
// arrival; the client's connection cap is the only queue on the
// generator side, and time spent in it counts as latency.
func runOpenLoop(f *fleet, sched []openOp, refs []specRef) openRun {
	ctx := context.Background()
	start := time.Now().Add(20 * time.Millisecond)
	out := make([]opResult, len(sched))
	var wg sync.WaitGroup
	for i, op := range sched {
		due := start.Add(op.Due)
		waitUntil(due)
		wg.Add(1)
		go func(i int, op openOp, due time.Time) {
			defer wg.Done()
			r := submitJob(ctx, f, tenants[op.Tenant].Key, refs[i], due, nil)
			r.Class = op.Class
			out[i] = r
		}(i, op, due)
	}
	wg.Wait()
	last := start
	for _, r := range out {
		if r.Done.After(last) {
			last = r.Done
		}
	}
	return openRun{Ops: out, Makespan: last.Sub(start)}
}
