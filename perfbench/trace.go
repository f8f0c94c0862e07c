package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"finwl/internal/obs"
	"finwl/internal/serve"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer: an http.Handler around each front and a thin
// wrapper of serve.Service (and StreamRunner) under it. Every span
// carries the op's X-Request-Id, which the router forwards on its hop,
// so the router's and the replica's spans of one op share it.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     string `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // hit | checkpoint | exact | … for solve spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(op, name, tag string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Op: op, Name: name, Tag: tag, Start: t.since(start), End: t.since(end)})
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// handler records one "<role>.front" span per request.
func (t *tracer) handler(role string, h http.Handler) http.Handler {
	name := role + ".front"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if id := r.Header.Get("X-Request-Id"); id != "" {
			t.add(id, name, "", start)
		}
	})
}

// service wraps svc so each call records a "<role>.<call>" span.
func (t *tracer) service(role string, svc serve.Service) serve.Service {
	ts := tracedService{t: t, role: role, inner: svc}
	if sr, ok := svc.(serve.StreamRunner); ok {
		return tracedStreamService{tracedService: ts, sr: sr}
	}
	return ts
}

type tracedService struct {
	t     *tracer
	role  string
	inner serve.Service
}

func (s tracedService) Solve(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	start := time.Now()
	resp, err := s.inner.Solve(ctx, req)
	tag := "error"
	if resp != nil {
		tag = string(resp.Fidelity)
		if resp.Cached {
			tag = "hit"
		}
	}
	s.t.add(obs.RequestIDFrom(ctx), s.role+".solve", tag, start)
	return resp, err
}

func (s tracedService) SolveBatch(ctx context.Context, reqs []*serve.Request) []serve.BatchItem {
	start := time.Now()
	items := s.inner.SolveBatch(ctx, reqs)
	s.t.add(obs.RequestIDFrom(ctx), s.role+".batch", "", start)
	return items
}

func (s tracedService) Draining() bool    { return s.inner.Draining() }
func (s tracedService) StatsPayload() any { return s.inner.StatsPayload() }

type tracedStreamService struct {
	tracedService
	sr serve.StreamRunner
}

func (s tracedStreamService) SolveStream(ctx context.Context, req *serve.StreamRequest) (*serve.StreamResponse, error) {
	start := time.Now()
	resp, err := s.sr.SolveStream(ctx, req)
	s.t.add(obs.RequestIDFrom(ctx), s.role+".stream", "", start)
	return resp, err
}

// link sets each span's parent: the latest-starting span of the same
// op whose interval encloses it. It returns the spans grouped by op.
func (t *tracer) link() map[string][]*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[string][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, ss := range byOp {
		// Outer spans first: earlier start, and on a tie the longer.
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		for i, s := range ss {
			for j := i - 1; j >= 0; j-- {
				if ss[j].Start <= s.Start && ss[j].End >= s.End {
					s.Parent = ss[j].ID
					break
				}
			}
		}
	}
	return byOp
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s *span, ops []*span) time.Duration {
	var kids [][2]int64
	for _, c := range ops {
		if c.Parent == s.ID {
			kids = append(kids, [2]int64{c.Start, c.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k[0], reach), min(k[1], s.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric in the order printed. A
// metric that does not apply to a workload (no router, no stream)
// reads 0.
var layerMetrics = []layerMetric{
	{"fleet.hop_us", "us"},
	{"fleet.failovers_per_op", "count"},
	{"serve.front_us", "us"},
	{"serve.hit_us", "us"},
	{"serve.checkpoint_us", "us"},
	{"serve.exact_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.retries_per_op", "count"},
	{"batch.engine_ms", "ms"},
	{"batch.chain_reuse_ratio", "ratio"},
	{"cluster.build_us", "us"},
	{"network.chain_ms", "ms"},
	{"network.chain_cpu_ratio", "ratio"},
	{"network.states", "count"},
	{"network.nnz", "count"},
	{"core.factor_ms", "ms"},
	{"core.factor_cpu_ratio", "ratio"},
	{"core.sparse_levels", "count"},
	{"core.dense_levels", "count"},
	{"core.epoch_us", "us"},
	{"core.sweep_point_us", "us"},
	{"core.checkpoint_us", "us"},
	{"stream.price_us", "us"},
	{"stream.chain_ms", "ms"},
	{"stream.graph_ms", "ms"},
	{"stream.states", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_per_kop", "count"},
	{"bench.client_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// runTraced measures the per-layer metrics: an untraced phase (the
// baseline of the tracing overhead, and the runtime and client
// figures), then a traced phase on fresh servers with the same inputs,
// then a replay of the workload's distinct models through each layer's
// public functions. Each phase runs half the given seconds, so a traced
// run takes about as long as an untraced one.
func runTraced(w workload, opt options) (*result, error) {
	half := opt.seconds / 2
	chk := &checker{}
	base, _, err := setUp(w, opt, nil, chk, 1, 0)
	if err != nil {
		return nil, err
	}
	ph0, err := timedPhase(base, half)
	if err == nil {
		if verr := base.r.verify(); verr != nil {
			chk.failf("verification: %v", verr)
		}
	}
	base.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	e, _, err := setUp(w, opt, tr, chk, 1, 0)
	if err != nil {
		return nil, err
	}
	defer e.close()
	tr.reset()
	ph, err := timedPhase(e, half)
	if err != nil {
		return nil, err
	}
	if err := e.r.verify(); err != nil {
		chk.failf("verification: %v", err)
	}
	rp := newReplayer()
	if err := e.r.replay(rp); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	vals := rp.values()
	spanMetrics(tr, ph, vals)
	statsMetrics(ph, vals)

	ops := float64(ph0.ok())
	vals["runtime.alloc_kb_per_op"] = float64(ph0.mem1.TotalAlloc-ph0.mem0.TotalAlloc) / 1024 / ops
	vals["runtime.gc_per_kop"] = float64(ph0.mem1.NumGC-ph0.mem0.NumGC) * 1000 / ops
	if ph0.codecN > 0 {
		vals["bench.client_us"] = float64(ph0.codec.Microseconds()) / float64(ph0.codecN)
	}
	vals["bench.trace_overhead_pct"] = (ph.quantile(0.5)/ph0.quantile(0.5) - 1) * 100

	if err := tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	chk.report(os.Stderr)
	res := &result{
		Correct:   chk.ok(),
		Attempted: ph0.attempted + ph.attempted,
		Failed:    ph0.failed + ph.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// spanMetrics derives the handler- and Service-boundary metrics.
func spanMetrics(tr *tracer, ph *phaseStats, vals map[string]float64) {
	byOp := tr.link()
	var hop, front, hit, ckpt, exact, batch []float64
	for _, id := range ph.ids {
		ops := byOp[id]
		var routerSelf time.Duration
		sawRouter := false
		for _, s := range ops {
			switch s.Name {
			case "router.front", "router.solve", "router.batch":
				routerSelf += selfTime(s, ops)
				sawRouter = true
			case "replica.front", "embedded.front":
				front = append(front, us(selfTime(s, ops)))
			case "replica.solve", "embedded.solve":
				switch s.Tag {
				case "hit":
					hit = append(hit, us(s.dur()))
				case string(serve.FidelityCheckpoint):
					ckpt = append(ckpt, us(s.dur()))
				case string(serve.FidelityExact):
					exact = append(exact, us(s.dur()))
				}
			case "replica.batch", "embedded.batch":
				batch = append(batch, us(s.dur()))
			}
		}
		if sawRouter {
			hop = append(hop, us(routerSelf))
		}
	}
	put := func(name string, xs []float64, scale float64) {
		if len(xs) > 0 {
			vals[name] = median(xs) * scale
		}
	}
	put("fleet.hop_us", hop, 1)
	put("serve.front_us", front, 1)
	put("serve.hit_us", hit, 1)
	put("serve.checkpoint_us", ckpt, 1)
	put("serve.exact_ms", exact, 1e-3)
	put("batch.engine_ms", batch, 1e-3)
}

// statsMetrics derives the counter ratios from the servers' /stats.
func statsMetrics(ph *phaseStats, vals map[string]float64) {
	d := func(f func(replicaStats) int64) float64 { return float64(ph.st1.sum(f) - ph.st0.sum(f)) }
	ops := float64(ph.attempted)
	if req := d(func(r replicaStats) int64 { return r.Stats.Requests }); req > 0 {
		vals["serve.hit_ratio"] = d(func(r replicaStats) int64 { return r.Stats.CacheHits }) / req
	}
	vals["serve.retries_per_op"] = d(func(r replicaStats) int64 { return r.Stats.Retries }) / ops
	if jobs := d(func(r replicaStats) int64 { return r.Stats.BatchJobs }); jobs > 0 {
		vals["batch.chain_reuse_ratio"] = d(func(r replicaStats) int64 { return r.Stats.BatchChainReuse }) / jobs
	}
	vals["fleet.failovers_per_op"] = float64(ph.st1.router.Failovers-ph.st0.router.Failovers) / ops
	if ph.queueN > 0 {
		vals["serve.queue_ms"] = ph.queueMS / float64(ph.queueN)
	}
}
