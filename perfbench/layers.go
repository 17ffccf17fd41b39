package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/experiments"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/tenant"
	"repro/internal/topology"
)

// layerMetrics computes the per-layer figures of a traced run. Counts
// come from /metrics deltas over the timed phases, stage times from the
// job views the run collected, and the rest from calls the benchmark
// makes at each layer's public entry point on the run's exact inputs,
// after the timed phase has ended. Percentiles of operation stage times
// follow the same ten-beyond rule as the end-to-end ones; timings the
// benchmark takes itself are plain medians. A figure a workload has no
// samples for is 0 and the report says why.
func layerMetrics(cfg config, d *runData, e2e metricSet) (metricSet, error) {
	m := metricSet{}
	notes := map[string]string{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	pct := func(name, unit string, xs []float64, p float64) {
		v, ok := percentile(xs, p)
		if !ok {
			notes[name] = fmt.Sprintf("unsupported with %d samples", len(xs))
			v = 0
		}
		set(name, unit, v)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dl := d.Deltas
	ops := float64(len(d.Ops))

	// service (incl. HTTP): handler time of submissions, stage times of
	// the executed jobs, rejections.
	posts := `http_request_duration_us_%s{route="POST /v1/%s"}`
	postSum := dl[fmt.Sprintf(posts, "sum", "jobs")] + dl[fmt.Sprintf(posts, "sum", "sweeps")]
	postCount := dl[fmt.Sprintf(posts, "count", "jobs")] + dl[fmt.Sprintf(posts, "count", "sweeps")]
	set("service.http_post_us", "us", ratio(postSum, postCount))
	var waits, execs, overheads []float64
	for _, op := range d.Ops {
		t, ok := op.View.times()
		if !ok || op.View.Source == "store" {
			continue
		}
		waits = append(waits, ms(t.QueueWait))
		execs = append(execs, ms(t.Exec))
		if ref, ok := d.Refs[op.Spec.key]; ok && ref.err == "" {
			overheads = append(overheads, ms(t.Exec)-ms(ref.engine)/float64(parallelism(op.Spec.Spec, d.Fleet)))
		}
	}
	pct("service.queue_wait_p50_ms", "ms", waits, 50)
	pct("service.queue_wait_p99_ms", "ms", waits, 99)
	pct("service.exec_ms", "ms", execs, 50)
	set("service.rejected", "count", dl.family("service_jobs_rejected_total"))

	// tenant: admission replayed on the run's submission sequence.
	admit, err := replayAdmission(cfg, d)
	if err != nil {
		return nil, err
	}
	set("tenant.admit_us", "us", median(admit))
	set("tenant.rejected", "count", dl.family(tenant.MetricRejected))

	// store: engine calls on a copy of the prepared data dir, plus the
	// server's own hit/miss and WAL counts.
	st, err := storeLayer(cfg, d)
	if err != nil {
		return nil, err
	}
	set("store.get_us", "us", median(st.get))
	set("store.put_us", "us", median(st.put))
	set("store.open_ms", "ms", st.open)
	hits, misses := dl.family(store.MetricHits), dl.family(store.MetricMisses)
	set("store.hit_ratio", "ratio", ratio(hits, hits+misses))
	set("store.wal_appends_per_cell", "count", ratio(dl.family(store.MetricWALAppends), ops))

	// experiments: engine time per trial of the distinct specs the run
	// executed (not those served from the store), run directly.
	var trialMs, engineMs []float64
	seen := map[string]bool{}
	for _, op := range d.Ops {
		ref, ok := d.Refs[op.Spec.key]
		if !ok || seen[op.Spec.key] || op.View.StartedAt.IsZero() || op.View.Source == "store" {
			continue
		}
		seen[op.Spec.key] = true
		engineMs = append(engineMs, ms(ref.engine))
		if ref.err == "" {
			trialMs = append(trialMs, ms(ref.engine)/float64(op.Spec.Spec.Trials))
		}
	}
	set("experiments.trial_ms", "ms", median(trialMs))

	// sweep: orchestration time per cell beyond the engine's own.
	var executed, failed, cells float64
	for _, r := range d.Rounds {
		if sv := r.Sweep; sv != nil {
			executed += float64(sv.Executed)
			failed += float64(sv.Failed)
			cells += float64(sv.Cells)
		}
	}
	rounds := float64(len(d.Rounds))
	overhead := 0.0
	if cells > 0 {
		perCell := mean(seconds(d.Makespans)) * 1000 * float64(d.Fleet.Workers) / (cells / rounds)
		overhead = perCell - mean(engineMs)
	}
	set("sweep.overhead_per_cell_ms", "ms", overhead)
	set("sweep.cells_executed", "count", ratio(executed, rounds))
	set("sweep.cells_failed", "count", ratio(failed, rounds))

	// cluster, wire, shard.
	pct("cluster.dispatch_overhead_ms", "ms", overheads, 50)
	set("cluster.leases_granted", "count", dl.family("cluster_leases_granted_total"))
	set("cluster.leases_reassigned", "count", dl.family("cluster_leases_reassigned_total"))
	perWorker := dl.labeled("cluster_units_completed_total", "worker")
	units, maxUnits := 0.0, 0.0
	for _, v := range perWorker {
		units += v
		maxUnits = math.Max(maxUnits, v)
	}
	set("cluster.worker_units_max_share", "ratio", ratio(maxUnits, units))
	frames := dl.family("wire_frames_sent_total") + dl.family("wire_frames_received_total")
	set("wire.frames_per_unit", "count", ratio(frames, units))
	set("shard.units_per_job", "count", ratio(units, dl.labeled("service_jobs_executed_total", "path")["cluster"]))

	// core and simnet: one traced direct run of the representative spec.
	eng, err := traceEngine(d.Rep.Spec)
	if err != nil {
		return nil, err
	}
	for _, ph := range []string{"announce", "tree-formation", "aggregation", "confirmation", "pinpointing"} {
		set("core."+strings.ReplaceAll(ph, "-", "_")+"_ms", "ms", eng.phaseMs[ph])
	}
	set("core.slots", "count", eng.slots)
	set("simnet.messages", "count", eng.messages)
	set("simnet.bytes", "B", eng.bytes)
	set("simnet.ns_per_message", "ns", eng.nsPerMessage)

	// keydist and synopsis kernels at the representative size.
	set("keydist.deploy_ms", "ms", timeKeydist(d.Rep.Spec.N))
	set("synopsis.vector_us", "us", timeSynopsis(d.Rep.Spec.Synopses))

	// generator validity.
	pct("gen.late_p99_ms", "ms", lateness(d.Ops), 99)

	// The traced run's own end-to-end figures: compared with an untraced
	// run of the same seed they are the tracing overhead.
	for name, v := range e2e {
		m["traced."+name] = v
	}

	fmt.Printf("per-layer (%s, traced):\n", cfg.Workload)
	for _, name := range sortedKeys(m) {
		note := notes[name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Printf("  %-32s %14.4f %s%s\n", name, m[name].Value, m[name].Unit, note)
	}
	fmt.Printf("  engine trace spec: %s\n", d.Rep.body)
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// parallelism is how many fleet workers one job's trials can occupy at
// once: its shard count, capped by the fleet.
func parallelism(spec experiments.ScenarioConfig, f fleetSpec) int {
	p := 1
	if f.ShardTrials > 0 {
		p = (spec.Trials + f.ShardTrials - 1) / f.ShardTrials
	}
	if p > f.Workers {
		p = f.Workers
	}
	return p
}

// replayAdmission runs the run's submissions, in order and on the run's
// own clock, through a tenant.Controller loaded from the same keyfile
// and a tenant.Queue of the server's capacity, timing AdmitSubmission
// plus Push for each; every pushed item is popped straight away.
func replayAdmission(cfg config, d *runData) ([]float64, error) {
	now := time.Unix(0, 0)
	ctl, err := tenant.NewController(tenant.Config{Path: cfg.keyfile(), Now: func() time.Time { return now }})
	if err != nil {
		return nil, err
	}
	q := tenant.NewQueue[int](ctl, tenant.QueueConfig{Capacity: serverQueue})
	out := make([]float64, 0, len(d.Ops))
	var prev time.Time
	for i, op := range d.Ops {
		t, err := ctl.Authenticate(op.Tenant)
		if err != nil {
			return nil, err
		}
		// The replay clock follows the run's submission times; it only
		// moves forward (closed rounds restart their own clocks).
		at := op.Due
		if at.IsZero() {
			at = op.View.SubmittedAt
		}
		if !prev.IsZero() && at.After(prev) {
			now = now.Add(at.Sub(prev))
		}
		prev = at
		start := time.Now()
		if err := ctl.AdmitSubmission(t); err == nil {
			if err := q.Push(t, i); err == nil {
				q.Pop()
			}
		}
		out = append(out, float64(time.Since(start))/float64(time.Microsecond))
	}
	return out, nil
}

type storeFigures struct {
	open     float64 // ms
	get, put []float64
}

// storeLayer opens a copy of the prepared data dir with the server's
// store configuration (per-record fsync on), writes the rows of every
// distinct executed spec as the server did, then reads every
// operation's spec back, in run order.
func storeLayer(cfg config, d *runData) (storeFigures, error) {
	var fig storeFigures
	dir := filepath.Join(cfg.WorkDir, "store-layer")
	if err := copyDir(d.PrepDir, dir); err != nil {
		return fig, err
	}
	start := time.Now()
	st, err := store.Open(dir, store.Config{SegmentBytes: segmentBytes, Metrics: metrics.New()})
	if err != nil {
		return fig, err
	}
	defer st.Close()
	fig.open = ms(time.Since(start))
	written := map[string]bool{}
	for _, op := range d.Ops {
		ref := d.Refs[op.Spec.key]
		if op.View.Source == "store" || op.View.StartedAt.IsZero() || ref.err != "" || written[op.Spec.key] {
			continue
		}
		written[op.Spec.key] = true
		var rows []experiments.ScenarioRow
		if err := json.Unmarshal(ref.rows, &rows); err != nil {
			return fig, err
		}
		t := time.Now()
		if err := st.PutScenario(op.Spec.Spec, rows, store.Meta{Version: "perfbench"}); err != nil {
			return fig, err
		}
		fig.put = append(fig.put, float64(time.Since(t))/float64(time.Microsecond))
	}
	for _, op := range d.Ops {
		t := time.Now()
		if _, _, err := st.GetScenario(op.Spec.Spec); err != nil {
			return fig, err
		}
		fig.get = append(fig.get, float64(time.Since(t))/float64(time.Microsecond))
	}
	return fig, nil
}

type engineFigures struct {
	phaseMs         map[string]float64 // mean per trial
	slots           float64
	messages, bytes float64
	nsPerMessage    float64
}

// traceEngine runs spec directly on one core with the engine's public
// Trace hook, timestamping each EventPhase and the first EventWalkStep
// of every trial. A phase lasts until the next phase starts or the
// trial's outcome; the pinpointing walk is cut out of the phase it
// runs in and reported on its own.
func traceEngine(spec experiments.ScenarioConfig) (engineFigures, error) {
	type stamp struct {
		t     time.Time
		kind  core.EventKind
		label string
	}
	var mu sync.Mutex
	perTrial := map[int][]stamp{}
	reg := metrics.New()
	spec.Workers = 1
	spec.Metrics = reg
	spec.Trace = func(trial int, ev core.Event) {
		if ev.Kind != core.EventPhase && ev.Kind != core.EventWalkStep && ev.Kind != core.EventOutcome {
			return
		}
		mu.Lock()
		perTrial[trial] = append(perTrial[trial], stamp{time.Now(), ev.Kind, ev.Label})
		mu.Unlock()
	}
	start := time.Now()
	rows, err := experiments.RunScenario(spec)
	wall := time.Since(start)
	if err != nil {
		return engineFigures{}, fmt.Errorf("engine trace of %+v: %w", spec, err)
	}
	fig := engineFigures{phaseMs: map[string]float64{}}
	for _, stamps := range perTrial {
		var marks []stamp // phase starts, then the outcome
		var walk time.Time
		for _, s := range stamps {
			switch {
			case s.kind == core.EventWalkStep && walk.IsZero():
				walk = s.t
			case s.kind == core.EventPhase, s.kind == core.EventOutcome:
				marks = append(marks, s)
			}
		}
		sort.SliceStable(marks, func(i, j int) bool { return marks[i].t.Before(marks[j].t) })
		for i := 0; i+1 < len(marks); i++ {
			if marks[i].kind != core.EventPhase {
				continue
			}
			from, to := marks[i].t, marks[i+1].t
			dur := to.Sub(from)
			if !walk.IsZero() && !walk.Before(from) && walk.Before(to) {
				dur -= to.Sub(walk)
				fig.phaseMs["pinpointing"] += ms(to.Sub(walk))
			}
			fig.phaseMs[marks[i].label] += ms(dur)
		}
	}
	trials := float64(len(rows))
	for k := range fig.phaseMs {
		fig.phaseMs[k] /= trials
	}
	for _, r := range rows {
		fig.slots += float64(r.Slots) / trials
	}
	snap := metricsSnapshot{}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err == nil {
		snap = parseMetrics(sb.String())
	}
	msgs := snap.family(simnet.MetricMessagesSent)
	fig.messages = msgs / trials
	fig.bytes = snap.family(simnet.MetricBytesSent) / trials
	if msgs > 0 {
		fig.nsPerMessage = float64(wall.Nanoseconds()) / msgs
	}
	return fig, nil
}

// timeKeydist times keydist.NewDeployment with the scenario runner's
// key-pool parameters at n nodes: the median of five deployments.
func timeKeydist(n int) float64 {
	var xs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := keydist.NewDeployment(n, keydist.DenseParams(), crypto.KeyFromUint64(uint64(i+1)), crypto.NewStreamFromSeed(uint64(i+1))); err != nil {
			return 0
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs)
}

// timeSynopsis times one sensor's synopsis vector of m instances: the
// median over 1000 sensors.
func timeSynopsis(m int) float64 {
	nonce := []byte("perfbench-nonce")
	var xs []float64
	for id := 1; id <= 1000; id++ {
		start := time.Now()
		synopsis.Vector(nonce, topology.NodeID(id), int64(id%10+1), m)
		xs = append(xs, float64(time.Since(start))/float64(time.Microsecond))
	}
	return median(xs)
}
