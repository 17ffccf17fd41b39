package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// setupOnly is how many times every workload starts and stops its fleet
// over the prepared data dir before the timed phase, so that setup_s,
// the fastest of these and the timed phase's own starts, rests on enough
// samples to hold still at a few milliseconds.
const setupOnly = 30

// Closed workloads repeat rounds until --seconds have passed and, so
// that their figures rest on enough samples, at least minSweepRounds
// rounds (sweep-fleet) or minPaperRounds rounds (paper-scale, whose cold
// p50 over its two jobs a round needs twenty).
const (
	minSweepRounds = 3
	minPaperRounds = 10
)

// Closed rounds read back each successful operation this many times.
// A single pass takes a few milliseconds (paper-scale: two jobs) to a
// few tens (sweep-fleet: ~90 cells), so a hit median taken from it
// samples the host at one instant; repeating the pass spreads the
// samples over a longer stretch of each round.
const (
	sweepReadBacks = 5
	paperReadBacks = 100
)

func shardTrialsFor(workload string) int {
	if workload == "paper-scale" {
		return 1 // each large job spreads across the fleet trial by trial
	}
	return 0 // small specs stay whole: one unit per job or cell
}

// timedFleet brackets one timed phase on a ready fleet: CPU, peak RSS
// and (traced runs only) /metrics counts.
type timedFleet struct {
	f      *fleet
	trace  bool
	cpu0   float64
	gen0   float64
	host0  hostCPU
	before metricsSnapshot
}

func beginTimed(f *fleet, trace bool) (*timedFleet, error) {
	t := &timedFleet{f: f, trace: trace}
	var err error
	if trace {
		if t.before, err = f.scrape(); err != nil {
			return nil, err
		}
	}
	t.gen0 = selfCPU()
	t.host0 = readHostCPU()
	t.cpu0, err = f.cpuSeconds()
	return t, err
}

// end records the phase into d.
func (t *timedFleet) end(d *runData) error {
	cpu1, err := t.f.cpuSeconds()
	if err != nil {
		return err
	}
	rss, err := t.f.peakRSSMiB()
	if err != nil {
		return err
	}
	d.CPU = append(d.CPU, cpu1-t.cpu0)
	d.RSS = append(d.RSS, rss)
	d.GenCPU += selfCPU() - t.gen0
	d.Host = d.Host.add(readHostCPU().sub(t.host0))
	if t.trace {
		after, err := t.f.scrape()
		if err != nil {
			return err
		}
		d.Deltas.add(delta(t.before, after))
	}
	return nil
}

func runJobsOpen(cfg config) (*runData, error) {
	sched := openSchedule(cfg.Seed, cfg.Seconds)
	if len(sched) > serverRetain {
		return nil, fmt.Errorf("%d arrivals exceed the server's -retain %d; shorten --seconds", len(sched), serverRetain)
	}
	prepStart := time.Now()
	prep, err := buildCorpus(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("corpus: %d specs primed in %.2f s (untimed)\n", corpusSize, time.Since(prepStart).Seconds())
	refs := make([]specRef, len(sched))
	for i, op := range sched {
		refs[i] = newSpecRef(op.Spec)
	}
	d := &runData{PrepDir: prep, Deltas: metricsSnapshot{}}
	client := newClient(cfg.Nproc)
	if err := setupSamples(cfg, d, 0, client); err != nil {
		return nil, err
	}
	f, err := freshFleet(cfg, d, prep, "timed", 0, client)
	if err != nil {
		return nil, err
	}
	t, err := beginTimed(f, cfg.Trace)
	if err != nil {
		f.kill()
		return nil, err
	}
	run := runOpenLoop(f, sched, refs)
	if err := t.end(d); err != nil {
		f.kill()
		return nil, err
	}
	readViews(f, run.Ops, cfg.Nproc)
	if err := f.stop(); err != nil {
		return nil, err
	}
	d.Ops = run.Ops
	d.Makespans = []time.Duration{run.Makespan}
	for i, op := range sched {
		if op.Class == classCold {
			d.Rep = refs[i]
			break
		}
	}
	finish(cfg, d)
	return d, nil
}

func runSweepFleet(cfg config) (*runData, error) {
	d := &runData{PrepDir: filepath.Join(cfg.WorkDir, "empty"), Deltas: metricsSnapshot{}}
	if err := os.MkdirAll(d.PrepDir, 0o755); err != nil {
		return nil, err
	}
	client := newClient(cfg.Nproc)
	if err := setupSamples(cfg, d, 0, client); err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r < minSweepRounds || time.Since(start) < time.Duration(cfg.Seconds)*time.Second; r++ {
		body, err := json.Marshal(sweepGrid(cfg.Seed, r))
		if err != nil {
			return nil, err
		}
		f, err := freshFleet(cfg, d, d.PrepDir, fmt.Sprintf("round%03d", r), 0, client)
		if err != nil {
			return nil, err
		}
		t, err := beginTimed(f, cfg.Trace)
		if err != nil {
			f.kill()
			return nil, err
		}
		key := tenants[tenantSweeper].Key
		rr, err := runSweepRound(f, key, body, func() error { return t.end(d) })
		if err != nil {
			f.kill()
			return nil, err
		}
		rr.Ops = append(rr.Ops, readBack(f, key, rr.Ops, sweepReadBacks, cfg.Nproc)...)
		readViews(f, rr.Ops, cfg.Nproc)
		if err := f.stop(); err != nil {
			return nil, err
		}
		d.Rounds = append(d.Rounds, rr)
		d.Makespans = append(d.Makespans, rr.Makespan)
		d.Ops = append(d.Ops, rr.Ops...)
	}
	d.Rep = representativeCell(d.Ops)
	finish(cfg, d)
	return d, nil
}

// representativeCell picks the engine-trace spec of sweep-fleet: the
// first successful cell under the junk attack (one that pinpoints).
func representativeCell(ops []opResult) specRef {
	for _, op := range ops {
		if op.Outcome.OK && op.Spec.Spec.Attack == "junk" {
			return op.Spec
		}
	}
	return ops[0].Spec
}

func runPaperScale(cfg config) (*runData, error) {
	d := &runData{PrepDir: filepath.Join(cfg.WorkDir, "empty"), Deltas: metricsSnapshot{}}
	if err := os.MkdirAll(d.PrepDir, 0o755); err != nil {
		return nil, err
	}
	client := newClient(cfg.Nproc)
	if err := setupSamples(cfg, d, shardTrialsFor(cfg.Workload), client); err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r < minPaperRounds || time.Since(start) < time.Duration(cfg.Seconds)*time.Second; r++ {
		var refs []specRef
		for _, s := range paperJobs(cfg.Seed, r) {
			refs = append(refs, newSpecRef(s))
		}
		f, err := freshFleet(cfg, d, d.PrepDir, fmt.Sprintf("round%03d", r), shardTrialsFor(cfg.Workload), client)
		if err != nil {
			return nil, err
		}
		t, err := beginTimed(f, cfg.Trace)
		if err != nil {
			f.kill()
			return nil, err
		}
		key := tenants[tenantPaper].Key
		rr := runPaperRound(f, key, refs)
		if err := t.end(d); err != nil {
			f.kill()
			return nil, err
		}
		rr.Ops = append(rr.Ops, readBack(f, key, rr.Ops, paperReadBacks, cfg.Nproc)...)
		readViews(f, rr.Ops, cfg.Nproc)
		if err := f.stop(); err != nil {
			return nil, err
		}
		d.Rounds = append(d.Rounds, rr)
		d.Makespans = append(d.Makespans, rr.Makespan)
		d.Ops = append(d.Ops, rr.Ops...)
	}
	d.Rep = d.Ops[0].Spec
	finish(cfg, d)
	return d, nil
}

// setupSamples starts and stops the fleet setupOnly times.
func setupSamples(cfg config, d *runData, shardTrials int, client *http.Client) error {
	for i := 0; i < setupOnly; i++ {
		f, err := freshFleet(cfg, d, d.PrepDir, fmt.Sprintf("setup%d", i), shardTrials, client)
		if err != nil {
			return err
		}
		if err := f.stop(); err != nil {
			return err
		}
	}
	return nil
}

// freshFleet starts a fleet over a fresh copy of prep and records its
// set-up time. Each start gets its own data dir, so no run or round
// sees another's results.
func freshFleet(cfg config, d *runData, prep, name string, shardTrials int, client *http.Client) (*fleet, error) {
	runDir := filepath.Join(cfg.WorkDir, name)
	dataDir := filepath.Join(runDir, "data")
	if err := copyDir(prep, dataDir); err != nil {
		return nil, err
	}
	spec := cfg.fleetSpec(dataDir, runDir, shardTrials)
	f, err := startFleet(spec, client)
	if err != nil {
		return nil, err
	}
	d.Fleet = spec
	d.Setups = append(d.Setups, f.Setup)
	return f, nil
}

// finish runs the correctness check, outside every timed phase.
func finish(cfg config, d *runData) {
	specs := make([]specRef, 0, len(d.Ops)+1)
	for _, op := range d.Ops {
		specs = append(specs, op.Spec)
	}
	d.Refs = references(specs, cfg.Nproc)
	d.Verdict = check(d.Ops, d.Refs)
}

// buildCorpus writes the jobs-open prepared data dir into the run's
// work dir: a store primed with every corpus spec's rows, bulk-loaded
// without per-record fsync, then closed, which syncs and snapshots it.
// Every fleet start copies it byte for byte. It is untimed preparation
// (about 4 s on two cores) and is removed with the work dir.
func buildCorpus(cfg config) (string, error) {
	dir := filepath.Join(cfg.WorkDir, "corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	st, err := store.Open(dir, store.Config{SegmentBytes: segmentBytes, DisableFsync: true})
	if err != nil {
		return "", err
	}
	specs := make([]experiments.ScenarioConfig, corpusSize)
	for i := range specs {
		specs[i] = corpusSpec(i)
	}
	rows := make([][]experiments.ScenarioRow, corpusSize)
	errs := make([]error, corpusSize)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < cfg.Nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rows[i], errs[i] = experiments.RunScenario(specs[i])
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			st.Close()
			return "", fmt.Errorf("corpus spec %d: %w", i, errs[i])
		}
		if err := st.PutScenario(specs[i], rows[i], store.Meta{Version: "perfbench"}); err != nil {
			st.Close()
			return "", err
		}
	}
	return dir, st.Close()
}

// copyDir copies the regular files of src (one level, as a store data
// dir has) into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// selfCPU is the generator process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostCPU is the machine-wide CPU time split of /proc/stat, in ticks.
type hostCPU struct{ busy, idle, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	var v [8]float64
	for i := range v {
		if i+1 < len(f) {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
	}
	// user nice system idle iowait irq softirq steal
	return hostCPU{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}
}

func (h hostCPU) sub(o hostCPU) hostCPU {
	return hostCPU{h.busy - o.busy, h.idle - o.idle, h.steal - o.steal}
}

func (h hostCPU) add(o hostCPU) hostCPU {
	return hostCPU{h.busy + o.busy, h.idle + o.idle, h.steal + o.steal}
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(path, &s); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(s.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", s.Type)
}
