package main

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/config"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		// Lock and runtime time is charged to the innermost layer frame.
		{[]string{"internal/sync.(*Mutex).Lock", "sync.(*Mutex).Lock",
			"repro/internal/queuemodel.(*Queue).Delay", "repro/internal/network.(*Mesh).Delay",
			"repro/internal/memsys.(*Node).miss"}, "queuemodel"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.chansend1",
			"repro/internal/transport.(*mailbox).put", "repro/internal/network.(*Net).Send"}, "transport"},
		// Closures and methods resolve to their package.
		{[]string{"repro/internal/core.NewTile.func1", "repro/internal/coremodel.(*Core).advancePC"}, "core"},
		{[]string{"repro/internal/clock.(*ProgressWindow).Now"}, "clock"},
		// Non-layer repro packages are skipped over.
		{[]string{"repro/internal/arch.TileID.String", "repro/internal/stats.Aggregate",
			"repro/internal/core.(*Cluster).Run"}, "core"},
		{[]string{"repro/internal/workloads.radixWork", "repro/internal/core.(*Proc).runThreadFunc"}, "workloads"},
		// Sub-packages belong to their parent's first path element.
		{[]string{"repro/internal/core/launch.Run"}, "core"},
		// No layer frame: garbage collection, scheduling or other.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketSched},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1"}, bucketSched},
		{[]string{"main.runJob", "repro.(*Simulator).Run"}, bucketOther},
		{[]string{"runtime._System"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseTracesAndShares(t *testing.T) {
	const out = `File: perfbench
Build ID: 0123
Type: cpu
Duration: 3.13s, Total samples = 60ms (1.92%)
-----------+-------------------------------------------------------
      10ms   internal/sync.(*Mutex).Lock (inline)
             repro/internal/memsys.(*Node).dispatch
             repro/internal/memsys.(*Node).Serve
-----------+-------------------------------------------------------
      40ms   repro/internal/clock.(*ProgressWindow).Observe
             repro/internal/queuemodel.(*Queue).Delay
-----------+-------------------------------------------------------
  bytes:  512
      10ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	samples, err := parseTraces(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("parsed %d samples, want 3: %+v", len(samples), samples)
	}
	if got := samples[0].stack; len(got) != 3 || got[0] != "internal/sync.(*Mutex).Lock" {
		t.Errorf("first stack = %q", got)
	}
	shares := cpuShares(samples)
	want := map[string]float64{"memsys": 100.0 / 6, "clock": 400.0 / 6, bucketGC: 100.0 / 6}
	for k, v := range want {
		if d := shares[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("share %s = %v, want %v", k, shares[k], v)
		}
	}
	if _, err := parseTraces(strings.NewReader("-----------+----\n  tenms foo\n")); err == nil {
		t.Error("bad sample value accepted")
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMetricNames checks that BENCHMARK.json is well formed and declares
// exactly the metrics, with the units, that each mode reports.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wls []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wls, workloadNames())
	}

	declared := func(name, unit, better string) {
		checkName(name)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: invalid unit %q", name, unit)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		declared(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		e2e[m.Name] = m.Unit
	}
	if e2e["setup_s"] != "s" {
		t.Error("setup_s with unit s is required")
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		declared(m.Name, m.Unit, m.Better)
		layer[m.Name] = m.Unit
	}

	plain := job{totals: graphite.Totals{Instructions: 10}, run: 1e9, setup: 1e6, peakRSSMB: 1, allocs: 1}
	compare := func(mode string, got map[string]metric, want map[string]string) {
		if g, w := strings.Join(sortedKeys(got), " "), strings.Join(sortedKeys(want), " "); g != w {
			t.Errorf("%s reports\n  %s\nBENCHMARK.json declares\n  %s", mode, g, w)
		}
		for k, m := range got {
			if u, ok := want[k]; ok && u != m.Unit {
				t.Errorf("%s: %s reported in %q, declared in %q", mode, k, m.Unit, u)
			}
		}
	}
	compare("--trace 0", endToEndResult(tally{attempted: 1}, []job{plain}).Metrics, e2e)

	sh := &shape{frames: 1, bytes: 64}
	sh.calls[1] = 1
	probeMetrics := sh.metrics()
	for _, p := range probes {
		probeMetrics["probe."+p.name+"_ns"] = metric{1, "ns/op"}
		probeMetrics["probe."+p.name+"_allocs"] = metric{0, "allocs/op"}
	}
	traced := plain
	traced.profiled = true
	res := layerResult(tally{attempted: 2}, []job{plain, traced}, map[string]float64{}, nil, probeMetrics)
	compare("--trace 1", res.Metrics, layer)
}

// tiny is a workload small enough for unit tests.
var tiny = workload{name: "tiny", app: "radix", preset: "small-cache", tiles: 4, scale: 6, procs: 1,
	memNet: config.NetMeshHop, sync: config.Lax}

// TestWrongChecksumIsAFailure runs real jobs against a deliberately wrong
// expected checksum and checks that each is counted as a failed attempt.
func TestWrongChecksumIsAFailure(t *testing.T) {
	want, err := tiny.nativeChecksum()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runJob(tiny, 1, want, nil, io.Discard); err != nil {
		t.Fatalf("job with the right checksum failed: %v", err)
	}
	if _, err := runJob(tiny, 1, want+1, nil, io.Discard); !errors.Is(err, errMismatch) {
		t.Fatalf("job with a wrong checksum: err = %v, want a mismatch", err)
	}

	jobs, tl := measure(tiny, 1, want+1, 0, nil, io.Discard)
	if len(jobs) != 0 || tl.attempted != 1+minJobs || tl.failed != tl.attempted {
		t.Fatalf("measure: %d passed, %d failed of %d attempted; want all %d failed",
			len(jobs), tl.failed, tl.attempted, 1+minJobs)
	}
	if res := endToEndResult(tl, jobs); res.Correct || res.Failed != tl.failed {
		t.Errorf("result correct=%v failed=%d, want incorrect with %d failed", res.Correct, res.Failed, tl.failed)
	}
}

// TestProbesRun records the traffic shape of a small workload and runs
// every layer probe briefly on it.
func TestProbesRun(t *testing.T) {
	sh, err := trafficShape(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sh.frameBytes() <= 0 || sh.framesPerCall() < 1 {
		t.Fatalf("traffic shape: %d-byte frames, %v frames per call", sh.frameBytes(), sh.framesPerCall())
	}
	for i, p := range probes {
		body, done, err := p.setup(probeEnv{rng: rand.New(rand.NewSource(int64(i))), shape: sh, log: io.Discard})
		if err != nil {
			t.Errorf("%s: setup: %v", p.name, err)
			continue
		}
		if err := body(256); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
		done()
	}
}

// TestCallSequence checks that the replayed fabric calls follow the
// recorded distribution, Sends included.
func TestCallSequence(t *testing.T) {
	sh := &shape{frames: 4, bytes: 4 * 47}
	sh.calls[0], sh.calls[3] = 3, 1
	counts := map[int]int{}
	for _, k := range sh.callSequence(rand.New(rand.NewSource(1)), 4000) {
		counts[k]++
	}
	if len(counts) != 2 || counts[0] < 2800 || counts[0] > 3200 {
		t.Errorf("call sizes %v, want about 3000 Sends and 1000 batches of 3", counts)
	}
	if sh.frameBytes() != 47 || sh.framesPerCall() != 1 {
		t.Errorf("frame %d B, %v frames per call; want 47 B, 1", sh.frameBytes(), sh.framesPerCall())
	}
}
