// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time from a seed, checks every output against an
// exact reference, and prints the result as one JSON object on the last
// line of standard output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload ite --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced operations;
// --trace 1 times every engine call and reports the per-layer metrics.
// README.md describes the workloads, metrics and rules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"

	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	// detail holds workload-specific figures printed before the result
	// line for people reading the log (energies, percentiles with their
	// sample counts, determinism spreads).
	detail map[string]any
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// Only a run whose every operation failed has no samples; it is
		// already reported as incorrect, and JSON has no NaN.
		v = 0
	}
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(name string, v any) {
	if r.detail == nil {
		r.detail = map[string]any{}
	}
	r.detail[name] = v
}

// endToEnd sets the end-to-end metrics from the untraced operations of
// a run: set-up times, whole-solve times, per-operation times, the
// number of operations done in elapsed seconds, and the failure count
// already in r.
func (r *result) endToEnd(setups, solves, ops []float64, done int, elapsed float64) {
	p50, _ := percentile(ops, 50)
	r.set("setup_s", "s", median(setups))
	r.set("solve_s", "s", median(solves))
	r.set("op_p50_s", "s", p50)
	r.set("ops_per_s", "1/s", float64(done)/elapsed)
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("ok_ratio", "ratio", 1-ratio(float64(r.failed), float64(r.attempted)))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(config) result{
	"ite":       func(c config) result { return runITE(c, false) },
	"ite-u1":    func(c config) result { return runITE(c, true) },
	"amplitude": runAmplitude,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ite | ite-u1 | amplitude")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 times every engine call and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ite|ite-u1|amplitude, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	stamp := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"trace":        trace,
		"kernel":       tensor.KernelVariant(),
		"cpu_features": tensor.CPUFeatures(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"pool_size":    pool.Size(),
		"go_version":   runtime.Version(),
	}
	printJSON(map[string]any{"stamp": stamp})

	res := run(cfg)
	if res.detail != nil {
		printJSON(map[string]any{"detail": res.detail})
	}
	printJSON(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// deadline returns when measurement started, in nowNs time, and a
// function reporting whether the configured measurement time has
// elapsed.
func deadline(cfg config) (int64, func() bool) {
	start := nowNs()
	d := int64(cfg.seconds * 1e9)
	return start, func() bool { return nowNs()-start >= d }
}

// guard runs f and reports whether it panicked. The panic is printed
// to standard error and the caller counts the operation as failed.
func guard(f func()) (panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", p)
			panicked = true
		}
	}()
	f()
	return false
}

// peakRSSMB returns the process's peak resident set size in MB, read
// from /proc/self/status (VmHWM); where that is unavailable it falls
// back to the memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		var kb float64
		for _, line := range strings.Split(string(b), "\n") {
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
