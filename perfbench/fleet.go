package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fleetSpec is everything a server-plus-workers deployment is started
// with. Every flag either program takes is set here explicitly, so the
// recorded configuration is the whole configuration.
type fleetSpec struct {
	BinDir      string
	RunDir      string // logs go here
	DataDir     string
	Keyfile     string
	Workers     int
	ShardTrials int
	GOMAXPROCS  int // set in every process's environment
}

const (
	serverQueue     = 256
	serverDispatch  = 4     // -workers: jobs in flight towards the fleet
	serverRetain    = 16384 // above any run's job count, so every job stays readable
	compactInterval = "1m"
	leaseTTL        = "10s"
	leaseRetries    = 3
	segmentBytes    = 64 << 20
	jobTimeout      = "15m"
	drainTimeout    = "1m"
	workerPrefetch  = 1
	healthPollEvery = time.Millisecond
	setupDeadline   = 30 * time.Second
	stopDeadline    = 60 * time.Second
)

func (s fleetSpec) serverArgs(addr, wireAddr string) []string {
	return []string{
		"-addr", addr,
		"-wire-addr", wireAddr,
		"-wire-advertise", "",
		"-cluster",
		"-data-dir", s.DataDir,
		"-tenants", s.Keyfile,
		"-queue", strconv.Itoa(serverQueue),
		"-workers", strconv.Itoa(serverDispatch),
		"-retain", strconv.Itoa(serverRetain),
		"-job-timeout", jobTimeout,
		"-drain-timeout", drainTimeout,
		"-store-segment-bytes", strconv.Itoa(segmentBytes),
		"-store-compact-interval", compactInterval,
		"-lease-ttl", leaseTTL,
		"-lease-retries", strconv.Itoa(leaseRetries),
		"-shard-trials", strconv.Itoa(s.ShardTrials),
	}
}

func workerArgs(base string, i int) []string {
	return []string{
		"-server", base,
		"-name", fmt.Sprintf("w%d", i+1),
		"-prefetch", strconv.Itoa(workerPrefetch),
		"-http-poll=false",
	}
}

// proc is one started program with its log file.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

func startProc(name, bin, logPath string, gomaxprocs int, args []string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	// If the benchmark itself is killed, the fleet goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: f, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM and waits for a graceful exit, killing the process
// if it has not gone within stopDeadline.
func (p *proc) stop() error {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("%s exited: %w", p.name, err)
		}
		return nil
	case <-time.After(stopDeadline):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not drain within %s", p.name, stopDeadline)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// fleet is a running vmat-server with its connected vmat-workers.
type fleet struct {
	spec    fleetSpec
	base    string
	server  *proc
	workers []*proc
	client  *http.Client
	// Setup is the time from launching the server to a ready fleet.
	Setup time.Duration
}

// freePort finds a loopback port the server can bind. It searches below
// Linux's ephemeral range (32768 and up), so no client connection of
// the generator can take the port between this check and the bind.
func freePort() (string, error) {
	for i := 0; i < 100; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(10000))
		l, err := net.Listen("tcp", addr)
		if err == nil {
			l.Close()
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free port in 20000-29999")
}

// startFleet launches the server over spec.DataDir and, once it
// answers, the workers; it returns when /healthz reports status ok, the
// whole fleet connected over the wire transport, and recovery
// finished. Workers start only after the server answers so that their
// registration backoff is not part of the set-up time.
func startFleet(spec fleetSpec, client *http.Client) (*fleet, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	f := &fleet{spec: spec, base: "http://" + addr, client: client}
	start := time.Now()
	f.server, err = startProc("vmat-server", filepath.Join(spec.BinDir, "vmat-server"),
		filepath.Join(spec.RunDir, "server.log"), spec.GOMAXPROCS, spec.serverArgs(addr, wireAddr))
	if err != nil {
		return nil, err
	}
	deadline := start.Add(setupDeadline)
	for {
		if _, err := f.health(); err == nil {
			break
		}
		if err := f.checkAlive(deadline); err != nil {
			f.kill()
			return nil, err
		}
		time.Sleep(healthPollEvery)
	}
	for i := 0; i < spec.Workers; i++ {
		w, err := startProc(fmt.Sprintf("vmat-worker %d", i+1), filepath.Join(spec.BinDir, "vmat-worker"),
			filepath.Join(spec.RunDir, fmt.Sprintf("worker%d.log", i+1)), spec.GOMAXPROCS, workerArgs(f.base, i))
		if err != nil {
			f.kill()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	for {
		h, err := f.health()
		if err == nil && h.Status == "ok" && !h.Recovery.Active &&
			h.Workers.Connected == spec.Workers && h.Workers.WireConnected == spec.Workers {
			break
		}
		if err := f.checkAlive(deadline); err != nil {
			f.kill()
			return nil, err
		}
		time.Sleep(healthPollEvery)
	}
	f.Setup = time.Since(start)
	return f, nil
}

type health struct {
	Status   string `json:"status"`
	Recovery struct {
		Active bool `json:"active"`
	} `json:"recovery"`
	Workers struct {
		Connected     int `json:"connected"`
		WireConnected int `json:"wire_connected"`
	} `json:"workers"`
}

func (f *fleet) health() (health, error) {
	var h health
	resp, err := f.client.Get(f.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// checkAlive fails when a fleet process has exited or the set-up
// deadline has passed.
func (f *fleet) checkAlive(deadline time.Time) error {
	for _, p := range append([]*proc{f.server}, f.workers...) {
		select {
		case err := <-p.done:
			p.done <- err
			out, _ := os.ReadFile(p.log.Name())
			return fmt.Errorf("%s exited during set-up (%v):\n%s", p.name, err, out)
		default:
		}
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("fleet not ready within %s", setupDeadline)
	}
	return nil
}

func (f *fleet) kill() {
	for _, p := range append(f.workers, f.server) {
		if p == nil {
			continue
		}
		_ = p.cmd.Process.Kill()
		<-p.done
		p.log.Close()
	}
}

// stop drains the workers, then the server, and waits for all of them.
func (f *fleet) stop() error {
	var errs []error
	for _, w := range f.workers {
		errs = append(errs, w.stop())
	}
	errs = append(errs, f.server.stop())
	return errors.Join(errs...)
}

func (f *fleet) pids() []int {
	pids := []int{f.server.pid()}
	for _, w := range f.workers {
		pids = append(pids, w.pid())
	}
	return pids
}

// cpuSeconds is the user plus system CPU time the fleet's processes
// have used so far.
func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, pid := range f.pids() {
		s, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// peakRSSMiB sums every fleet process's peak resident set (VmHWM).
func (f *fleet) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, pid := range f.pids() {
		kb, err := procStatusKB(pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// procCPU reads utime+stime from /proc/<pid>/stat. The kernel reports
// them in USER_HZ ticks, which Linux fixes at 100 per second.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(b[i+1:]))
	// fields[0] is field 3 (state); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

func procStatusKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// scrape reads the server's /metrics exposition.
func (f *fleet) scrape() (metricsSnapshot, error) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b)), nil
}

// call performs one keyed API request and decodes a JSON response into
// out (when non-nil and the status is 2xx). It returns the status code.
func (f *fleet) call(ctx context.Context, method, path, key string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 || out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// newClient returns the generator's HTTP client: keep-alive with at
// most conns connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 2 * time.Minute,
	}
}
