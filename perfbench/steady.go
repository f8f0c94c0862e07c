package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs one workload R times, each in its own process with
// seeds seed, seed+1, …, and prints every metric's median and the
// distance between its first and third quartiles relative to that
// median — the figure each end-to-end bound must stay well above. A run
// whose checks failed is listed but kept out of the figures, and makes
// the command exit 1.
func steadiness(opt options, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	incorrect := 0
	for i := 0; i < runs; i++ {
		seed := opt.seed + int64(i)
		cmd := exec.Command(exe, "--workload", opt.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if i == 0 && len(lines) > 0 && strings.HasPrefix(lines[0], "# host ") {
			fmt.Println(lines[0])
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: bad result line: %v\n", i+1, err)
			return 1
		}
		fmt.Printf("# run %d seed %d correct %v attempted %d failed %d", i+1, seed, res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedKeys(res.Metrics) {
			fmt.Printf(" %s=%.4g", name, res.Metrics[name].Value)
		}
		fmt.Println()
		if !res.Correct {
			incorrect++
			continue
		}
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Printf("%-28s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "spread")
	for _, n := range sortedKeys(vals) {
		xs := vals[n]
		q1, med, q3 := quantileOf(xs, 0.25), median(xs), quantileOf(xs, 0.75)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-28s %-6s %14.6g %14.6g %14.6g %8.4f\n", n, units[n], med, q1, q3, spread)
	}
	if len(shares) > 0 {
		fmt.Printf("%-28s %-6s %14.6g\n", "failed/attempted", "ratio", median(shares))
	}
	if incorrect > 0 {
		fmt.Printf("# %d of %d runs failed their checks and are left out of the figures above\n", incorrect, runs)
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
