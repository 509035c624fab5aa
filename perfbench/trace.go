package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
)

// layers are the simulator packages CPU time is attributed to, as
// repro/internal/<layer>. workloads is the target application's own code.
var layers = []string{
	"transport", "network", "queuemodel", "clock", "memsys", "cache",
	"directory", "dram", "coremodel", "synchro", "mcp", "core", "workloads",
}

// Buckets for samples with no layer frame on their stack.
const (
	bucketGC    = "runtime_gc"
	bucketSched = "runtime_sched"
	bucketOther = "other"
)

// cpuBuckets lists every cpu.* bucket in report order.
func cpuBuckets() []string {
	return append(append([]string(nil), layers...), bucketGC, bucketSched, bucketOther)
}

// bucketOf attributes one profile sample, given its stack innermost frame
// first, to the layer of its innermost repro/internal/<layer> frame, so
// runtime, lock and syscall time is charged to the layer that called it.
// Frames of other repro packages (arch, stats, config) are skipped over.
// A stack with no layer frame is garbage collection, scheduling or other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return bucketGC
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.mstart", "runtime.sysmon", "runtime.mcall", "runtime.findRunnable":
			return bucketSched
		}
	}
	return bucketOther
}

// sample is one aggregated profile stack.
type sample struct {
	value time.Duration
	stack []string // innermost first
}

// parseTraces reads the output of `go tool pprof -traces`: a header, then
// stacks separated by dashed lines, the first line of each carrying the
// sample value.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	var cur *sample
	inHeader := true
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inHeader, cur = false, nil
			continue
		}
		fields := strings.Fields(line)
		// Skip the header and label lines ("key: value"), which carry no frame.
		if inHeader || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue
		}
		if cur == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			out = append(out, sample{value: d})
			cur = &out[len(out)-1]
			if fields = fields[1:]; len(fields) == 0 {
				continue
			}
		}
		cur.stack = append(cur.stack, fields[0])
	}
	return out, sc.Err()
}

// cpuShares buckets samples and returns each bucket's percentage of the
// total sampled time.
func cpuShares(samples []sample) map[string]float64 {
	shares := make(map[string]float64)
	var total time.Duration
	for _, s := range samples {
		total += s.value
		shares[bucketOf(s.stack)] += float64(s.value)
	}
	for k, v := range shares {
		shares[k] = 100 * v / float64(total)
	}
	return shares
}

// profiler records CPU profiles of selected jobs into one directory.
type profiler struct {
	dir   string
	files []string
	f     *os.File // the profile being recorded, if any
}

func (p *profiler) start() error {
	path := filepath.Join(p.dir, fmt.Sprintf("job-%03d.pprof", len(p.files)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.files = append(p.files, path)
	return nil
}

// stop ends the profile being recorded; it is a no-op if there is none.
func (p *profiler) stop() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	p.f.Close()
	p.f = nil
}

// merge combines the per-job profiles into out with the toolchain's
// pprof, removes them, and returns the merged profile's stacks.
func (p *profiler) merge(out string) ([]sample, error) {
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no profiled jobs")
	}
	args := append([]string{"tool", "pprof", "-proto", "-output", out}, p.files...)
	if msg, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go tool pprof -proto: %v: %s", err, msg)
	}
	for _, f := range p.files {
		os.Remove(f)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", out)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.Bytes())
	}
	return parseTraces(&stdout)
}

// span is one timed call into the public API.
type span struct {
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Traced bool   `json:"traced"`
	Start  int64  `json:"start_ns"` // since the run began
	Dur    int64  `json:"dur_ns"`
}

// jobSpans returns the New/Run/Peek/Close spans of job i, relative to
// origin.
func jobSpans(i int, j *job, origin time.Time) []span {
	at := j.start.Sub(origin).Nanoseconds()
	var out []span
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"new", j.setup}, {"run", j.run}, {"peek", j.peek}, {"close", j.close}} {
		out = append(out, span{Job: i, Name: c.name, Traced: j.profiled, Start: at, Dur: c.d.Nanoseconds()})
		at += c.d.Nanoseconds()
	}
	return out
}

// traced runs for dur, alternating untraced jobs with jobs recorded under
// the CPU profiler, then records the workload's traffic shape, runs the
// layer probes, and reports the per-layer metrics. The untraced jobs give
// the baseline for the tracing overhead.
func traced(w workload, seed int64, dur time.Duration, artifacts string, log io.Writer) (*result, error) {
	want, err := w.nativeChecksum()
	if err != nil {
		return nil, err
	}
	stem := filepath.Join(artifacts, fmt.Sprintf("%s-seed%d", w.name, seed))
	prof := &profiler{dir: stem + ".jobs"}
	if err := os.RemoveAll(prof.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(prof.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(prof.dir)

	jobs, t := measure(w, seed, want, dur, prof, log)
	var spans []span
	profiled := 0
	for i := range jobs {
		spans = append(spans, jobSpans(i, &jobs[i], jobs[0].start)...)
		if jobs[i].profiled {
			profiled++
		}
	}
	if t.hung || profiled == 0 {
		// Nothing to attribute (and a hung job may still hold the
		// profiler): report only what failed.
		return &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}, nil
	}

	samples, err := prof.merge(stem + ".pprof")
	if err != nil {
		return nil, err
	}
	if err := writeJSON(stem+".spans.json", spans); err != nil {
		return nil, err
	}
	sh, err := trafficShape(w, seed)
	if err != nil {
		return nil, err
	}
	probeMetrics, err := runProbes(seed, sh, log)
	if err != nil {
		return nil, err
	}
	return layerResult(t, jobs, cpuShares(samples), spans, probeMetrics), nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// countMetrics are the simulated-work counters, read from RunStats.Totals.
var countMetrics = []struct {
	name string
	get  func(j *job) float64
}{
	{"instructions", func(j *job) float64 { return float64(j.totals.Instructions) }},
	{"net_packets", func(j *job) float64 { return float64(j.totals.NetPacketsSent) }},
	{"net_bytes", func(j *job) float64 { return float64(j.totals.NetBytesSent) }},
	{"l1d_misses", func(j *job) float64 { return float64(j.totals.L1DMisses) }},
	{"l2_misses", func(j *job) float64 { return float64(j.totals.L2Misses) }},
	{"inv_sent", func(j *job) float64 { return float64(j.totals.InvSent) }},
	{"dram_reads", func(j *job) float64 { return float64(j.totals.DRAMReads) }},
	{"dram_writes", func(j *job) float64 { return float64(j.totals.DRAMWrites) }},
	{"miss_true_sharing", func(j *job) float64 { return float64(j.totals.MissBy[graphite.MissTrueSharing]) }},
	{"miss_false_sharing", func(j *job) float64 { return float64(j.totals.MissBy[graphite.MissFalseSharing]) }},
}

// layerResult assembles the per-layer metrics of a traced run.
func layerResult(t tally, all []job, shares map[string]float64, spans []span, probes map[string]metric) *result {
	m := make(map[string]metric)
	for _, b := range cpuBuckets() {
		m["cpu."+b] = metric{shares[b], "%"}
	}
	var roi []float64
	for _, j := range all {
		roi = append(roi, j.roiCycles)
	}
	for _, c := range countMetrics {
		var xs []float64
		for i := range all {
			xs = append(xs, c.get(&all[i]))
		}
		m["count."+c.name] = metric{median(xs), "count"}
	}
	lo, mid, hi := spread(roi)
	m["count.roi_cycles_min"] = metric{lo, "cycles"}
	m["count.roi_cycles_median"] = metric{mid, "cycles"}
	m["count.roi_cycles_max"] = metric{hi, "cycles"}

	var perPacket, plainIPS, tracedIPS []float64
	for _, j := range all {
		ips := float64(j.totals.Instructions) / j.run.Seconds()
		if j.profiled {
			tracedIPS = append(tracedIPS, ips)
			continue
		}
		plainIPS = append(plainIPS, ips)
		if j.totals.NetPacketsSent > 0 {
			perPacket = append(perPacket, float64(j.run.Nanoseconds())/float64(j.totals.NetPacketsSent))
		}
	}
	m["network.host_ns_per_packet"] = metric{median(perPacket), "ns"}
	overhead := 0.0
	if tr := median(tracedIPS); tr > 0 {
		overhead = 100 * (median(plainIPS)/tr - 1)
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}

	for _, name := range []string{"new", "run", "peek", "close"} {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, float64(s.Dur)/1e6)
			}
		}
		m["span."+name+"_ms"] = metric{median(xs), "ms"}
	}
	for k, v := range probes {
		m[k] = v
	}
	return &result{
		Correct:   t.failed == 0 && len(all) > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   m,
		roi:       roi,
	}
}
