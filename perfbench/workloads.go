package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// workload is one simulation the benchmark times. Each is chosen so that a
// different group of simulator layers dominates host CPU; README.md gives
// the reasons and the layer each one isolates.
type workload struct {
	name   string
	app    string // workloads registry name
	preset string // scenario preset the target starts from
	tiles  int    // one application thread per tile
	scale  int
	procs  int // simulated host processes; more than one runs over loopback TCP
	memNet config.NetworkModelKind
	sync   config.SyncModel
	// quantum is the LaxBarrier quantum in cycles (0 keeps the default).
	quantum arch.Cycles
}

var workloadList = []workload{
	// The Figure 5 matmul on a 32x32 mesh with hostscale's lean caches
	// ("large-target" is "small-cache" with those caches): about 20 hops
	// per packet puts the contention queues and the progress window on
	// every miss.
	{name: "matmul-1024-contention", app: "matmul", preset: "large-target", tiles: 1024, scale: 96, procs: 1,
		memNet: config.NetMeshContention, sync: config.Lax},
	// All-to-all key permutation: write-invalidate traffic through the
	// memory system and directory, with no link queues.
	{name: "radix-64-coherence", app: "radix", preset: "small-cache", tiles: 64, scale: 12, procs: 1,
		memNet: config.NetMeshHop, sync: config.Lax},
	// Two simulated processes over one loopback TCP connection pair with a
	// global barrier: the only workload whose critical path crosses TCP
	// framing, the per-process ledger and the MCP barrier. At a 1000-cycle
	// quantum the host idles between barrier rounds so often that each
	// round waits on host wakeups: interleaved 10 s runs on a shared 2-CPU
	// host varied by ±20%, against ±9% at 10000, which keeps the ledger
	// and the barrier on the critical path.
	{name: "ocean-64-tcp-barrier", app: "ocean_cont", preset: "small-cache", tiles: 64, scale: 64, procs: 2,
		memNet: config.NetMeshHop, sync: config.LaxBarrier, quantum: 10000},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloadList))
	for i, w := range workloadList {
		out[i] = w.name
	}
	return out
}

// config returns the target for one job. The seed is the only input that
// varies between runs of a workload; it seeds the model's randomness.
func (w workload) config(seed int64) (config.Config, error) {
	cfg, err := scenario.Preset(w.preset)
	if err != nil {
		return cfg, err
	}
	cfg.Tiles = w.tiles
	cfg.Workers = runtime.NumCPU()
	cfg.RandSeed = seed
	cfg.MemNet.Kind = w.memNet
	cfg.Sync.Model = w.sync
	if w.quantum > 0 {
		cfg.Sync.BarrierQuantum = w.quantum
	}
	if w.procs > 1 {
		cfg.Processes = w.procs
		cfg.Transport = config.TransportTCP
	}
	return cfg, nil
}

func (w workload) params() workloads.Params {
	return workloads.Params{Threads: w.tiles, Scale: w.scale}
}

// nativeChecksum computes the reference result the simulated runs must
// reproduce.
func (w workload) nativeChecksum() (float64, error) {
	app, ok := workloads.Get(w.app)
	if !ok {
		return 0, fmt.Errorf("unknown application %q", w.app)
	}
	return app.Native(w.params()), nil
}

// job is the measurement of one simulation from New through Close.
type job struct {
	profiled                bool
	start                   time.Time
	setup, run, peek, close time.Duration
	totals                  graphite.Totals
	roiCycles               float64
	allocs                  uint64
	peakRSSMB               float64
}

func (j *job) total() time.Duration { return j.setup + j.run + j.peek + j.close }

// errMismatch marks a job whose checksum disagrees with the native result.
var errMismatch = errors.New("checksum mismatch")

// runJob builds, runs, reads back and closes one simulation, timing each
// call. It fails if any call errors or panics on the calling goroutine, or
// if the checksum read back disagrees with want. A non-nil prof records a
// CPU profile from just before New until Close returns.
func runJob(w workload, seed int64, want float64, prof *profiler, log io.Writer) (j job, err error) {
	cfg, err := w.config(seed)
	if err != nil {
		return j, err
	}
	// Ports are picked here, well before New: picking them just before New
	// was measured to raise how often New's TCP dial finds the peer not yet
	// listening and sleeps 10 ms before retrying (about 25% of jobs instead
	// of about 10%), which setup_s would show.
	if w.procs > 1 {
		if cfg.TCPBase, err = freePortRun(w.procs); err != nil {
			return j, err
		}
	}
	app, ok := workloads.Get(w.app)
	if !ok {
		return j, fmt.Errorf("unknown application %q", w.app)
	}
	prog := app.Build(w.params())

	// Start every job from a collected heap with its memory returned, so
	// the peak resident set and the allocation count are this job's own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return j, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if prof != nil {
		if err := prof.start(); err != nil {
			return j, err
		}
		defer prof.stop()
	}
	var (
		sim    *graphite.Simulator
		t0, t1 time.Time
	)
	newSim := func() error {
		t0 = time.Now()
		sim, err = graphite.New(cfg, prog)
		t1 = time.Now()
		return err
	}
	if err := retryPortTaken(w.procs, &cfg.TCPBase, log, newSim); err != nil {
		return j, fmt.Errorf("new: %w", err)
	}
	rs, err := sim.Run(0)
	t2 := time.Now()
	if err != nil {
		sim.Close()
		return j, fmt.Errorf("run: %w", err)
	}
	// The result window: the checksum at byte 0 and the end of the region
	// of interest at byte 8 (the layout scenario.ExecuteStats reads).
	var buf [16]byte
	sim.Peek(workloads.DefaultResultAddr, buf[:])
	t3 := time.Now()
	sim.Close()
	t4 := time.Now()
	prof.stop()

	runtime.ReadMemStats(&ms)
	rss, err := peakRSSMB()
	if err != nil {
		return j, err
	}
	j = job{
		start: t0,
		setup: t1.Sub(t0), run: t2.Sub(t1), peek: t3.Sub(t2), close: t4.Sub(t3),
		totals:    rs.Totals,
		roiCycles: float64(binary.LittleEndian.Uint64(buf[8:16])),
		allocs:    ms.Mallocs - mallocs,
		peakRSSMB: rss,
	}
	got := math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8]))
	if !workloads.Close(got, want) {
		return j, fmt.Errorf("%w: simulated %v, native %v", errMismatch, got, want)
	}
	if j.totals.Instructions == 0 || j.run <= 0 {
		return j, errors.New("run simulated no instructions")
	}
	return j, nil
}

// jobTimeout bounds one job; a job that exceeds it has hung.
const jobTimeout = 60 * time.Second

var errHung = errors.New("job did not finish within " + jobTimeout.String())

// guardedJob runs fn on its own goroutine so that a hung simulation is
// reported as a failure instead of stalling the benchmark. A hung job's
// goroutines cannot be reclaimed; the caller stops measuring after one.
func guardedJob(fn func() (job, error)) (job, error) {
	type outcome struct {
		j   job
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		j, err := fn()
		done <- outcome{j, err}
	}()
	timer := time.NewTimer(jobTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.j, o.err
	case <-timer.C:
		return job{}, errHung
	}
}

// tally counts attempted and failed jobs.
type tally struct {
	attempted, failed int
	hung              bool
}

func (t *tally) record(err error, log io.Writer) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	t.hung = t.hung || errors.Is(err, errHung)
	fmt.Fprintf(log, "perfbench: job %d failed: %v\n", t.attempted, err)
	return false
}

// minJobs is the fewest timed jobs of each kind a run makes, however
// short its duration.
const minJobs = 3

// measure runs one untimed warm-up job, which fills the simulator's
// process-wide pools as in a sweep that runs many jobs in one process, and
// then jobs until dur has passed. With prof set, every second job is
// recorded under the CPU profiler. It returns the jobs that passed their
// checks; every job, the warm-up included, counts as attempted.
func measure(w workload, seed int64, want float64, dur time.Duration, prof *profiler, log io.Writer) ([]job, tally) {
	var t tally
	_, err := guardedJob(func() (job, error) { return runJob(w, seed, want, nil, log) })
	t.record(err, log)

	var jobs []job
	kinds := 1
	if prof != nil {
		kinds = 2
	}
	deadline := time.Now().Add(dur)
	for i := 0; !t.hung && (i < kinds*minJobs || time.Now().Before(deadline)); i++ {
		var p *profiler
		if prof != nil && i%2 == 1 {
			p = prof
		}
		j, err := guardedJob(func() (job, error) { return runJob(w, seed, want, p, log) })
		if t.record(err, log) {
			j.profiled = p != nil
			jobs = append(jobs, j)
		}
	}
	return jobs, t
}

// endToEnd measures untraced jobs for dur and reports the end-to-end
// metrics as medians over the jobs that passed their checks.
func endToEnd(w workload, seed int64, dur time.Duration, log io.Writer) (*result, error) {
	want, err := w.nativeChecksum()
	if err != nil {
		return nil, err
	}
	jobs, t := measure(w, seed, want, dur, nil, log)
	return endToEndResult(t, jobs), nil
}

func endToEndResult(t tally, jobs []job) *result {
	var ips, jobS, setupS, rss, allocs, roi []float64
	for _, j := range jobs {
		ips = append(ips, float64(j.totals.Instructions)/j.run.Seconds())
		jobS = append(jobS, j.total().Seconds())
		setupS = append(setupS, j.setup.Seconds())
		rss = append(rss, j.peakRSSMB)
		allocs = append(allocs, float64(j.allocs))
		roi = append(roi, j.roiCycles)
	}
	return &result{
		Correct:   t.failed == 0 && len(jobs) > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"sim_instr_per_s": {median(ips), "instr/s"},
			"job_s":           {median(jobS), "s"},
			"setup_s":         {median(setupS), "s"},
			"peak_rss_mb":     {median(rss), "MB"},
			"allocs_per_run":  {median(allocs), "count"},
		},
		roi: roi,
	}
}

// freePortRun finds n consecutive free loopback ports, the layout the TCP
// transport expects (process p listens on base+p).
func freePortRun(n int) (int, error) {
	for attempt := 0; attempt < 64; attempt++ {
		var held []net.Listener
		base := 0
		for p := 0; p < n; p++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+p))
			if err != nil {
				break
			}
			if p == 0 {
				base = l.Addr().(*net.TCPAddr).Port
			}
			held = append(held, l)
		}
		for _, l := range held {
			l.Close()
		}
		if len(held) == n {
			return base, nil
		}
	}
	return 0, errors.New("no run of free loopback ports")
}

// portAttempts bounds how often a job picks new ports because one it was
// given was taken before the simulator bound it.
const portAttempts = 8

// retryPortTaken calls fn, which binds the n consecutive loopback ports
// from *base. freePortRun found those ports free and released them, so
// another process may take one before fn binds it; when fn fails for that
// reason, new ports are picked into *base and fn runs again. Such a retry
// is the harness's, not a failure of the program, and is logged as such.
func retryPortTaken(n int, base *int, log io.Writer, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) || attempt == portAttempts {
			return err
		}
		fmt.Fprintf(log, "perfbench: harness retry: a loopback port was taken before it was bound: %v\n", err)
		if *base, err = freePortRun(n); err != nil {
			return err
		}
	}
}

// resetPeakRSS restarts the kernel's peak-resident-set counter for this
// process (Linux clear_refs, value 5), so that peak_rss_mb is each job's
// own peak. Without it the metric would mean something else, so a failure
// fails the run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak resident set since the last reset, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
