// Command perfbench is finwl's end-to-end benchmark. It boots finwld
// servers in-process behind real loopback HTTP, drives one named
// workload with closed-loop clients, checks every answer against
// computations made apart from the solver, and prints its metrics.
//
//	perfbench --workload cold-paper --seed 7 --seconds 10 --trace 0
//	perfbench --workload warm-fleet --seed 7 --seconds 10 --trace 1
//	perfbench --workload plan-loaded --seconds 10 --steady 10
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run of the same workload and seed. --steady R runs the
// workload R times in child processes (seeds seed, seed+1, …) and
// prints each metric's median and quartile spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and print medians and spreads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opt := options{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	if *steady > 0 {
		return steadiness(opt, *steady)
	}
	if err := mvaSelfTest(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: MVA oracle self-test: %v\n", err)
		return 1
	}
	host, _ := json.Marshal(hostInfo())
	fmt.Printf("# host %s\n", host)

	var (
		res *result
		err error
	)
	if opt.trace {
		res, err = runTraced(w, opt)
	} else {
		res, err = runUntraced(w, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("# %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runUntraced is the only source of end-to-end numbers: set-up
// repeated (median reported), then one timed phase.
func runUntraced(w workload, opt options) (*result, error) {
	chk := &checker{}
	env, setup, err := setUp(w, opt, nil, chk, setupMinRuns, setupMinTime)
	if err != nil {
		return nil, err
	}
	defer env.close()
	ph, err := timedPhase(env, opt.seconds)
	if err != nil {
		return nil, err
	}
	if err := env.r.verify(); err != nil {
		chk.failf("verification: %v", err)
	}
	chk.report(os.Stderr)
	return &result{
		Correct:   chk.ok(),
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"p50_ms":        {ph.quantile(0.50) * 1e3, "ms"},
			"p90_ms":        {ph.quantile(0.90) * 1e3, "ms"},
			"ops_per_s":     {ph.opsPerS, "1/s"},
			"cpu_ms_per_op": {ph.cpu.Seconds() * 1e3 / float64(ph.ok()), "ms"},
			"peak_rss_mb":   {peakRSSMiB(), "MiB"},
			"setup_s":       {setup.Seconds(), "s"},
		},
	}, nil
}

// A run boots and warms its servers at least setupMinRuns times and
// until setupMinTime has been spent on it (at most setupMaxRuns times);
// the median is setup_s and the last instance serves the timed phase.
// A set-up of a few tens of milliseconds is so repeated about a hundred
// times, and its median does not rest on a handful of samples that one
// scheduler stall or burst of host steal can move.
const (
	setupMinRuns = 9
	setupMinTime = 3 * time.Second
	setupMaxRuns = 400
)

// setUp boots and warms the workload's servers at least minRuns times
// and until minTime has been spent, keeping the last instance, and
// returns the median set-up time.
func setUp(w workload, opt options, tr *tracer, chk *checker, minRuns int, minTime time.Duration) (*env, time.Duration, error) {
	var (
		times []float64
		spent time.Duration
		last  *env
	)
	for len(times) < minRuns || (spent < minTime && len(times) < setupMaxRuns) {
		if last != nil {
			last.close()
		}
		// Each set-up starts from a collected heap with the previous
		// instance's memory handed back, so neither the set-up times nor
		// the peak resident set carry the earlier instances.
		debug.FreeOSMemory()
		start := time.Now()
		e, err := newEnv(w, opt, tr, chk)
		if err != nil {
			return nil, 0, err
		}
		if err := e.r.warm(); err != nil {
			e.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
		last = e
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups: median %.4f s, quartiles %.4f and %.4f s\n",
		len(times), median(times), quantileOf(times, 0.25), quantileOf(times, 0.75))
	return last, time.Duration(median(times) * float64(time.Second)), nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
