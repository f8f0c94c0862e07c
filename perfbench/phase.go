package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"finwl/internal/obs"
)

// phaseStats is what one timed phase measured.
type phaseStats struct {
	windowLat [windows][]float64 // latency of successful ops (seconds), by the window their round started in
	attempted int64
	failed    int64
	failures  map[string]int64 // "class status code" → count
	// opsPerS is the throughput of successful ops: each client's median
	// over its whole rounds of the round's successful ops per second,
	// summed over clients. Every round holds the same mix, so the median
	// is unbiased, and a stall that hits a few rounds does not move it.
	opsPerS float64
	cpu     time.Duration // process user+sys over the phase
	codec   time.Duration // load generator's own JSON work
	codecN  int64
	queueMS float64 // Σ timings.queue_ms over the answers that carry one
	queueN  int64
	mem0    runtime.MemStats
	mem1    runtime.MemStats
	ids     []string // op IDs of successful ops (traced runs only)

	st0, st1    snapshot // every server's /stats before and after
	chainBuilds int64    // level-chain constructions in the process during the phase
}

// chainBuilds is the process-wide count of level-chain constructions
// (the finwl_chain_build_seconds histogram in obs.Default; registering
// the same name again returns the existing histogram).
func chainBuilds() int64 {
	return obs.Default.Histogram("finwl_chain_build_seconds", "", obs.ExpBounds(100_000, 4, 13), 1e-9).Snapshot().Count
}

func (p *phaseStats) ok() int64 { return p.attempted - p.failed }

// checkNoFailures is the after-phase check of a workload on which no
// operation may fail; the message counts each kind of failure seen.
func (p *phaseStats) checkNoFailures(chk *checker, workload string) {
	chk.check(p.failed == 0, "%s: %d of %d ops failed, want 0 (by class, status and code: %v)", workload, p.failed, p.attempted, p.failures)
}

// windows is how many equal windows a phase is cut into for the
// latency percentiles.
const windows = 5

// quantile is the q-quantile of successful-op latency (seconds): the
// median over the phase's windows of each window's q-quantile. A round
// belongs to the window it starts in, so every window holds whole
// rounds, and a stall of a few seconds moves one window, not the
// result.
func (p *phaseStats) quantile(q float64) float64 {
	var per []float64
	for _, w := range p.windowLat {
		if len(w) > 0 {
			per = append(per, quantileOf(w, q))
		}
	}
	return median(per)
}

// timedPhase runs every client in a closed loop for the given number
// of seconds: each client sends its next op only when the previous one
// has finished, and always completes the round it has started, so
// every run attempts whole rounds.
func timedPhase(e *env, seconds float64) (*phaseStats, error) {
	st0, err := e.snapshot()
	if err != nil {
		return nil, fmt.Errorf("stats before phase: %w", err)
	}
	builds0 := chainBuilds()
	// Per-op records are kept to what the metrics need (op IDs only in a
	// traced run), so the load generator's own memory stays small next
	// to the servers' in peak_rss_mb.
	type clientOut struct {
		ids       []string
		byClass   map[string][]float64
		rates     []float64 // successful ops per second of each whole round
		windowLat [windows][]float64
		att, bad  int64
		failures  map[string]int64
		c         *client
		err       error
	}
	outs := make([]clientOut, e.nclients)
	ctx := context.Background()
	runtime.GC()
	ph := &phaseStats{failures: map[string]int64{}, st0: st0}
	runtime.ReadMemStats(&ph.mem0)
	cpu0 := cpuTime()
	steal0, total0, stealOK := hostTicks()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.failures = map[string]int64{}
			o.byClass = map[string][]float64{}
			c := &client{e: e}
			o.c = c
			var roundLat []float64
			for time.Now().Before(deadline) {
				ops := e.r.round(i)
				roundStart := time.Now()
				roundLat = roundLat[:0]
				for _, op := range ops {
					c.opID = newOpID()
					t0 := time.Now()
					err := op.run(ctx, c)
					d := time.Since(t0).Seconds()
					o.att++
					var oe *opError
					switch {
					case err == nil:
						roundLat = append(roundLat, d)
						o.byClass[op.class] = append(o.byClass[op.class], d)
						if e.tr != nil {
							o.ids = append(o.ids, c.opID)
						}
					case errors.As(err, &oe):
						o.bad++
						o.failures[fmt.Sprintf("%s %d %s", op.class, oe.Status, oe.Code)]++
					default:
						o.err = fmt.Errorf("%s: %w", op.class, err)
						return
					}
				}
				o.rates = append(o.rates, float64(len(roundLat))/time.Since(roundStart).Seconds())
				w := min(int(float64(windows)*roundStart.Sub(start).Seconds()/seconds), windows-1)
				o.windowLat[w] = append(o.windowLat[w], roundLat...)
			}
		}(i)
	}
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ph.mem1)
	if steal1, total1, ok := hostTicks(); ok && stealOK && total1 > total0 {
		// Every wall-clock metric moves with this figure; compare runs
		// only when it is alike.
		fmt.Printf("# host steal during the timed phase: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	byClass := map[string][]float64{}
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		ph.ids = append(ph.ids, o.ids...)
		for c, xs := range o.byClass {
			byClass[c] = append(byClass[c], xs...)
		}
		for w := range o.windowLat {
			ph.windowLat[w] = append(ph.windowLat[w], o.windowLat[w]...)
		}
		if len(o.rates) > 0 {
			ph.opsPerS += median(o.rates)
		}
		ph.attempted += o.att
		ph.failed += o.bad
		for k, v := range o.failures {
			ph.failures[k] += v
		}
		ph.codec += o.c.codec
		ph.codecN += o.c.codecN
		ph.queueMS += o.c.queueMS
		ph.queueN += o.c.queueN
	}
	if ph.ok() == 0 {
		return nil, fmt.Errorf("no operation succeeded (%d attempted)", ph.attempted)
	}
	for c, xs := range byClass {
		fmt.Fprintf(os.Stderr, "perfbench: %-18s %6d ops  p50 %9.3f ms  p90 %9.3f ms\n", c, len(xs), quantileOf(xs, 0.5)*1e3, quantileOf(xs, 0.9)*1e3)
	}
	for _, q := range []float64{0.5, 0.9} {
		fmt.Fprintf(os.Stderr, "perfbench: p%.0f by window:", q*100)
		for _, w := range ph.windowLat {
			fmt.Fprintf(os.Stderr, " %.3f", quantileOf(w, q)*1e3)
		}
		fmt.Fprintln(os.Stderr, " ms")
	}
	for k, v := range ph.failures {
		fmt.Printf("# failed ops: %d × %s\n", v, k) // class, HTTP status, wire code
	}
	if ph.st1, err = e.snapshot(); err != nil {
		return nil, fmt.Errorf("stats after phase: %w", err)
	}
	ph.chainBuilds = chainBuilds() - builds0
	if err := e.r.after(ph); err != nil {
		return nil, fmt.Errorf("after phase: %w", err)
	}
	return ph, nil
}

// checker collects correctness failures; one failed check makes the
// run's "correct" false.
type checker struct {
	mu     sync.Mutex
	checks int64
	fails  []string
}

// check counts one check and records msg when cond is false.
func (c *checker) check(cond bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if !cond {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failf(format string, args ...any) { c.check(false, format, args...) }

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fails) == 0
}

// report prints the check count and the first failures.
func (c *checker) report(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "perfbench: %d checks, %d failed\n", c.checks, len(c.fails))
	for i, f := range c.fails {
		if i == 20 {
			fmt.Fprintf(w, "perfbench:   … %d more\n", len(c.fails)-i)
			break
		}
		fmt.Fprintf(w, "perfbench:   FAIL %s\n", f)
	}
}

// cpuTime is this process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's peak resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantileOf is the q-quantile of xs, linearly interpolated between
// order statistics; xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// host describes the machine a result came from, so results from
// different hosts are never compared as like with like.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat:
// the steal ticks (time a hypervisor ran something else while this
// machine's CPUs wanted to run) and the total. ok is false where the
// file is not there.
func hostTicks() (steal, total int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		var v int64
		if _, err := fmt.Sscan(s, &v); err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
