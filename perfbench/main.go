// Command perfbench is the repository's end-to-end benchmark. It starts
// a real vmat-server (cluster mode over the wire transport, a data dir,
// and a tenant keyfile) with a vmat-worker fleet no larger than the
// machine's core count, drives it over loopback HTTP with one of three
// seeded workloads, checks every returned row set against a direct
// experiments.RunScenario, and prints its metrics; the last line of
// standard output is one JSON object.
//
// Usage (from the repository root; run.sh builds the programs first):
//
//	bash perfbench/run.sh --workload jobs-open --seed 1 --seconds 16 --trace 0
//
// With --trace 1 the same workload and seed run again and the JSON
// carries the per-layer metrics instead of the end-to-end ones. See
// perfbench/README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/tenant"
)

// tenants are the keyfile. The two jobs-open tenants have different
// fair-queue weights; every limit admits the planned load with room to
// spare (alpha plans ~105 submissions/s, beta ~45; a closed round and
// its read-backs fit in one burst), so a refusal is a finding, not the
// design. The sweeper's cell quota sits below the sweep's own in-flight
// cap of 8, so sweep-fleet exercises the cell-slot backoff.
var tenants = []tenant.KeyfileTenant{
	{ID: "alpha", Key: "perfbench-alpha-key", Limits: tenant.Limits{Weight: 3, Rate: 400, Burst: 200, MaxQueued: 192}},
	{ID: "beta", Key: "perfbench-beta-key", Limits: tenant.Limits{Weight: 1, Rate: 200, Burst: 100, MaxQueued: 64}},
	{ID: "sweeper", Key: "perfbench-sweeper-key", Limits: tenant.Limits{Weight: 1, Rate: 1000, Burst: 1000, MaxQueued: 64, MaxSweepCells: 4}},
	{ID: "paper", Key: "perfbench-paper-key", Limits: tenant.Limits{Weight: 1, Rate: 400, Burst: 400, MaxQueued: 8}},
}

const (
	tenantSweeper = 2
	tenantPaper   = 3
)

type config struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Root     string // repository checkout
	BinDir   string // built vmat-server and vmat-worker
	WorkDir  string // this run's scratch space inside the checkout
	Nproc    int
}

var workloads = map[string]func(config) (*runData, error){
	"jobs-open":   runJobsOpen,
	"sweep-fleet": runSweepFleet,
	"paper-scale": runPaperScale,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "jobs-open, sweep-fleet or paper-scale")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.Seconds, "seconds", 16, "how long the workload is measured")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.Root, "root", ".", "repository checkout the programs were built from")
	flag.StringVar(&cfg.BinDir, "bin", "", "directory holding vmat-server and vmat-worker")
	flag.Parse()
	cfg.Trace = trace == 1
	runner, ok := workloads[cfg.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	for _, b := range []string{"vmat-server", "vmat-worker"} {
		if _, err := os.Stat(filepath.Join(cfg.BinDir, b)); err != nil {
			return fmt.Errorf("missing program: %w", err)
		}
	}
	cfg.Nproc = runtime.NumCPU()
	cfg.WorkDir = filepath.Join(cfg.Root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", cfg.Workload, cfg.Seed, os.Getpid()))
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.WorkDir)
	if err := writeKeyfile(cfg.keyfile()); err != nil {
		return err
	}

	fmt.Printf("perfbench %s seed %d, %d s, trace %v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	printEnv(cfg)
	data, err := runner(cfg)
	if err != nil {
		return err
	}
	e2e, err := endToEnd(data)
	if err != nil {
		return err
	}
	printEndToEnd(cfg, data, e2e)
	metrics := e2e
	if cfg.Trace {
		layers, err := layerMetrics(cfg, data, e2e)
		if err != nil {
			return err
		}
		metrics = layers
	}
	fmt.Println(data.Verdict)
	return printJSON(data.Verdict, metrics)
}

func (c config) keyfile() string { return filepath.Join(c.WorkDir, "tenants.json") }

func (c config) fleetSpec(dataDir, runDir string, shardTrials int) fleetSpec {
	return fleetSpec{
		BinDir: c.BinDir, RunDir: runDir, DataDir: dataDir, Keyfile: c.keyfile(),
		Workers: c.Nproc, ShardTrials: shardTrials, GOMAXPROCS: c.Nproc,
	}
}

func writeKeyfile(path string) error {
	b, err := json.MarshalIndent(tenant.Keyfile{Tenants: tenants}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o600)
}

// runData is everything a workload measured, for the report.
type runData struct {
	Fleet     fleetSpec
	Setups    []time.Duration
	Makespans []time.Duration
	CPU       []float64 // fleet CPU seconds per round
	RSS       []float64 // fleet peak RSS MiB per round
	Ops       []opResult
	Rounds    []roundResult
	Deltas    metricsSnapshot // /metrics deltas over the timed phases (traced runs)
	PrepDir   string          // the prepared data dir every round starts from
	Refs      map[string]reference
	Verdict   verdict
	Rep       specRef // the spec the engine-layer trace runs
	GenCPU    float64 // the generator's own CPU seconds over the timed phases
	Host      hostCPU // machine-wide CPU ticks over the timed phases
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// endToEnd computes the metrics every workload reports. Operation
// latencies are pooled across rounds. Makespan and CPU are means over a
// closed workload's rounds (its total over the round count): the rounds
// differ in size by design, and the mean averages every round's noise
// where a median would rest on the middle two. Peak RSS, where every
// sample measures the same thing, is a median. Set-up is the fastest of
// a run's 31 or more starts: its noise (hypervisor steal, scheduling)
// only ever adds time, and between two sets of ten runs the minimum
// moved by at most 13% where the median moved by up to 22%.
func endToEnd(d *runData) (metricSet, error) {
	hit, ok := percentile(latencies(d.Ops, classHit), 50)
	if !ok {
		return nil, fmt.Errorf("%d hits cannot support a median", len(latencies(d.Ops, classHit)))
	}
	cold, ok := percentile(latencies(d.Ops, classCold), 50)
	if !ok {
		return nil, fmt.Errorf("%d cold operations cannot support a median", len(latencies(d.Ops, classCold)))
	}
	m := metricSet{
		"setup_s":     {slices.Min(seconds(d.Setups)), "s"},
		"hit_p50_ms":  {hit, "ms"},
		"cold_p50_ms": {cold, "ms"},
		"makespan_s":  {mean(seconds(d.Makespans)), "s"},
		"cpu_s":       {mean(d.CPU), "s"},
		"peak_rss_mb": {median(d.RSS), "MiB"},
	}
	for name, v := range m {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) || v.Value <= 0 {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return m, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// latencies returns the latency of every operation of the given class;
// a repeat is a hit on a spec the same run wrote.
func latencies(ops []opResult, class string) []float64 {
	var out []float64
	for _, op := range ops {
		c := op.Class
		if c == classRepeat {
			c = classHit
		}
		if c == class {
			out = append(out, op.Latency)
		}
	}
	return out
}

// printEndToEnd prints the human-readable report: every end-to-end
// metric with its unit and sample count, then the figures the JSON does
// not carry (see README): p99s, the failed share, machine load and
// generator lateness.
func printEndToEnd(cfg config, d *runData, m metricSet) {
	fmt.Printf("end-to-end (%s):\n", cfg.Workload)
	counts := map[string]int{
		"setup_s": len(d.Setups), "hit_p50_ms": len(latencies(d.Ops, classHit)),
		"cold_p50_ms": len(latencies(d.Ops, classCold)), "makespan_s": len(d.Makespans),
		"cpu_s": len(d.CPU), "peak_rss_mb": len(d.RSS),
	}
	for _, name := range sortedKeys(m) {
		fmt.Printf("  %-14s %12.4f %-4s (n=%d)\n", name, m[name].Value, m[name].Unit, counts[name])
	}
	setups := seconds(d.Setups)
	p25, _ := percentile(setups, 25)
	top, _ := percentile(setups, 100)
	fmt.Printf("  set-up starts: p25 %.4f, median %.4f, max %.4f s\n", p25, median(setups), top)
	if len(d.Makespans) > 1 {
		fmt.Printf("  per round:     makespan_s %s\n                 cpu_s      %s\n",
			joinFloats(seconds(d.Makespans)), joinFloats(d.CPU))
	}
	for _, c := range []string{classHit, classCold} {
		lat := latencies(d.Ops, c)
		name := c + "_p99_ms"
		if v, ok := percentile(lat, 99); ok {
			fmt.Printf("  %-14s %12.4f ms   (n=%d)\n", name, v, len(lat))
		} else {
			fmt.Printf("  %-14s unsupported with n=%d; highest supported percentile p%g\n", name, len(lat), highestSupported(len(lat)))
		}
	}
	fmt.Printf("  %-14s %12.4f      (%d of %d operations)\n", "failed_share",
		float64(d.Verdict.Failed)/float64(d.Verdict.Attempted), d.Verdict.Failed, d.Verdict.Attempted)
	total := d.Host.busy + d.Host.idle + d.Host.steal
	if total > 0 {
		fmt.Printf("  timed phases: generator CPU %.2f s; machine busy %.0f%%, stolen by the hypervisor %.1f%%\n",
			d.GenCPU, 100*d.Host.busy/total, 100*d.Host.steal/total)
	}
	if late, ok := percentile(lateness(d.Ops), 99); ok {
		p50, _ := percentile(lateness(d.Ops), 50)
		fmt.Printf("  %-14s %12.4f ms   (generator send time after due, n=%d; p50 %.4f ms)\n", "gen.late_p99", late, len(d.Ops), p50)
		if late > lateLimitMs {
			fmt.Printf("  WARNING: the generator fell behind its schedule (p99 %.2f ms > %.0f ms); latencies of this run include generator delay\n", late, lateLimitMs)
		}
	}
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// lateLimitMs flags a run whose generator could not keep its schedule.
const lateLimitMs = 5.0

func lateness(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = op.Late
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printJSON(v verdict, m metricSet) error {
	out := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{v.Correct, v.Attempted, v.Failed, m}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printEnv records the environment the numbers were taken in.
func printEnv(cfg config) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	fmt.Printf("env: %s %s/%s, cpu %q, nproc %d, generator GOMAXPROCS %d, server/worker GOMAXPROCS %d, data dir fs %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu, cfg.Nproc, runtime.GOMAXPROCS(0), cfg.Nproc, fsType(cfg.WorkDir))
	spec := cfg.fleetSpec("<data dir>", "", shardTrialsFor(cfg.Workload))
	fmt.Printf("server: vmat-server %s\n", strings.Join(spec.serverArgs("127.0.0.1:<port>", "127.0.0.1:<port>"), " "))
	fmt.Printf("workers: %d x vmat-worker %s\n", spec.Workers, strings.Join(workerArgs("http://127.0.0.1:<port>", 0), " "))
	kf, _ := json.Marshal(tenants)
	fmt.Printf("keyfile tenants: %s\n", kf)
	fmt.Printf("generator: one process, at most %d HTTP connections\n", cfg.Nproc)
}
