// Command perfbench is the repository's performance benchmark. It runs one
// named simulation workload repeatedly for a fixed time through the public
// graphite API (New, Run, Peek, Close), checks every run's checksum against
// the workload's native result, and prints the metrics as one JSON object on
// the last line of standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload radix-64-coherence --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json. With
// --trace 1 it alternates untraced jobs with jobs recorded under a CPU
// profile, runs the layer probes, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// artifactDir, relative to the directory the benchmark runs in, receives
// the traced run's profiles and span dumps.
const artifactDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the run's inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(stderr, "perfbench: peak_rss_mb cannot be measured per job: %v\n", err)
		return 1
	}

	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(w, *seed, dur, stderr)
	} else {
		res, err = traced(w, *seed, dur, artifactDir, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printSummary(stdout, w, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	roi []float64 // ROI cycles of every checked job, for the summary
}

// printSummary writes a human-readable digest ahead of the JSON line.
func printSummary(w io.Writer, wl workload, r *result) {
	fmt.Fprintf(w, "workload %s: %d failed of %d attempted\n", wl.name, r.Failed, r.Attempted)
	if len(r.roi) > 0 {
		lo, mid, hi := spread(r.roi)
		fmt.Fprintf(w, "  roi_cycles min %.4g median %.4g max %.4g over %d jobs\n", lo, mid, hi, len(r.roi))
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	_, m, _ := spread(xs)
	return m
}

// spread returns the minimum, median and maximum of xs.
func spread(xs []float64) (lo, mid, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	mid = s[n/2]
	if n%2 == 0 {
		mid = (s[n/2-1] + s[n/2]) / 2
	}
	return s[0], mid, s[n-1]
}
