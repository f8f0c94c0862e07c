package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"finwl/internal/serve"
)

// warm-fleet: nproc clients send repeats and fresh workload sizes over
// a small, pre-warmed working set through a router over two replicas.
// Per-request overhead carries it: two HTTP fronts, the router hop,
// cache lookups and short checkpoint sweeps.

// warmSpec is one model of the working set.
type warmSpec struct {
	arch string
	k    int
	h2   bool // remote storage (central) gets an H2 service law
}

// warmSpecs: at most four models, so even if both land on one replica
// they fit its four-entry solver cache.
var warmSpecs = []warmSpec{
	{arch: "central", k: 3},
	{arch: "distributed", k: 4},
	{arch: "central", k: 5, h2: true},
	{arch: "central", k: 6},
}

const (
	warmNs     = 8   // workload sizes warmed per model
	roundOps   = 512 // ops per client round: 1 fresh n (while rationed sizes last), 256 byte-identical repeats, 255 canonical-key repeats
	cacheSize  = 512 // the server's default result-cache size
	freshSpan  = 360 // fresh n values available per model
	cacheSlack = 32
)

// explicitDefault names a request field that may be spelled out with
// its default value without changing the model.
type explicitDefault int

const (
	edArch explicitDefault = iota // central only: "arch":"central"
	edC
	edB
	edCycles
	edRemoteFrac
	edCV2CPU
	edCV2Disk
	edCV2Comm
	edCV2Remote // exponential remote only
)

type warmModel struct {
	base    serve.Request // N filled per op
	d       demands
	ns      []int // warmed sizes
	fields  []explicitDefault
	mu      sync.Mutex
	answers map[int]float64 // every answer seen, by n
	fresh   []int           // unused fresh sizes
}

type warmFleet struct {
	e      *env
	models []*warmModel
	rngs   []*rand.Rand // one per client

	variant    atomic.Int64 // global canonical-key variant sequence
	freshSeq   atomic.Int64
	freshLeft  atomic.Int64 // fresh-n ops the result caches can take without evicting
	freshDone  atomic.Int64
	repeatDone atomic.Int64
}

func startWarmFleet(e *env) runner {
	rng := rand.New(rand.NewSource(e.opt.seed))
	w := &warmFleet{e: e}
	for _, s := range warmSpecs {
		m := &warmModel{answers: map[int]float64{}}
		m.base = serve.Request{K: s.k, App: &serve.AppSpec{X: perturb(rng, paperX), Y: perturb(rng, paperY)}}
		if s.arch == "distributed" {
			m.base.Arch = s.arch
		} else {
			m.fields = append(m.fields, edArch)
		}
		m.fields = append(m.fields, edC, edB, edCycles, edRemoteFrac, edCV2CPU, edCV2Disk, edCV2Comm)
		if s.h2 {
			m.base.CV2 = &serve.CV2Spec{Remote: *perturb(rng, 4)}
		} else {
			m.fields = append(m.fields, edCV2Remote)
		}
		m.d = demandsOf(s.arch, s.k, m.base.App, m.base.CV2)
		// Half the warmed sizes lie in the fill regime, half past it,
		// where the MVA slope check applies; fresh sizes lie beyond. The
		// warmed sizes are evenly spaced, not drawn: warm-up cost grows
		// with n, and drawn sizes would move setup_s from seed to seed.
		fill := fillFactor * s.k
		for j := 0; j < warmNs/2; j++ {
			m.ns = append(m.ns, fill*(2*j+1)/warmNs, fill+5+10*j)
		}
		for _, n := range rng.Perm(freshSpan) {
			m.fresh = append(m.fresh, fill+41+n)
		}
		w.models = append(w.models, m)
	}
	for i := 0; i < e.nclients; i++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(e.opt.seed*1000+int64(i)+1)))
	}
	w.freshLeft.Store(int64(cacheSize - len(warmSpecs)*warmNs - cacheSlack))
	return w
}

// request returns the model's body at n; mask selects which explicit
// default fields to spell out (0: the byte-identical base body).
func (m *warmModel) request(n int, mask int) serve.Request {
	req := m.base
	req.N = n
	app := *m.base.App
	req.App = &app
	var cv serve.CV2Spec
	if m.base.CV2 != nil {
		cv = *m.base.CV2
	}
	one, c, b, cycles, frac := 1.0, paperC, paperB, 10.0, 0.5
	for i, f := range m.fields {
		if mask&(1<<i) == 0 {
			continue
		}
		switch f {
		case edArch:
			req.Arch = "central"
		case edC:
			app.C = &c
		case edB:
			app.B = &b
		case edCycles:
			app.Cycles = &cycles
		case edRemoteFrac:
			app.RemoteFrac = &frac
		case edCV2CPU:
			cv.CPU = one
		case edCV2Disk:
			cv.Disk = one
		case edCV2Comm:
			cv.Comm = one
		case edCV2Remote:
			cv.Remote = one
		}
	}
	if cv != (serve.CV2Spec{}) {
		req.CV2 = &cv
	}
	return req
}

func (w *warmFleet) solve(ctx context.Context, c *client, what string, m *warmModel, req serve.Request) (*serve.Response, error) {
	var resp serve.Response
	if err := c.post(ctx, "/solve", &req, &resp); err != nil {
		return nil, err
	}
	c.noteQueue(resp.Timings)
	chk := w.e.chk
	chk.check(resp.Fidelity == serve.FidelityExact || resp.Fidelity == serve.FidelityCheckpoint,
		"%s: fidelity %q, want exact or checkpoint", what, resp.Fidelity)
	checkAnswer(chk, what, m.d, req.K, req.N, resp.TotalTime)
	return &resp, nil
}

// warm asks every (model, n) of the working set once with its
// byte-identical body, which fills the result cache and the
// request-identity map, and builds each model's chain once.
func (w *warmFleet) warm() error {
	c := &client{e: w.e, opID: newOpID()}
	for _, m := range w.models {
		for _, n := range m.ns {
			resp, err := w.solve(context.Background(), c, "warm-up", m, m.request(n, 0))
			if err != nil {
				return err
			}
			m.answers[n] = resp.TotalTime
		}
	}
	return nil
}

// freshOp asks a warmed model at a size never asked before.
func (w *warmFleet) freshOp() op {
	m := w.models[int(w.freshSeq.Add(1))%len(w.models)]
	m.mu.Lock()
	n := m.fresh[0]
	m.fresh = m.fresh[1:]
	m.mu.Unlock()
	return op{class: "fresh-n", run: func(ctx context.Context, c *client) error {
		resp, err := w.solve(ctx, c, "fresh-n", m, m.request(n, 0))
		if err != nil {
			return err
		}
		w.e.chk.check(resp.Fidelity == serve.FidelityCheckpoint && !resp.Cached,
			"fresh-n: fidelity %q cached=%v, want a checkpoint sweep of the cached chain", resp.Fidelity, resp.Cached)
		m.mu.Lock()
		m.answers[n] = resp.TotalTime
		m.mu.Unlock()
		w.freshDone.Add(1)
		return nil
	}}
}

func (w *warmFleet) round(cl int) []op {
	rng := w.rngs[cl]
	ops := make([]op, 0, roundOps)
	// Once one more fresh n would evict a result-cache entry (above about
	// 11,000 ops/s over 20 s), rounds hold repeats only, so the phase
	// still runs its whole length.
	if w.freshLeft.Add(-1) >= 0 {
		ops = append(ops, w.freshOp())
	}
	for i := len(ops); i < roundOps; i++ {
		identical := i <= roundOps/2
		m := w.models[rng.Intn(len(w.models))]
		n := m.ns[rng.Intn(len(m.ns))]
		class := "repeat-identical"
		mask := 0
		if !identical {
			// Walk every (model, n, spelling) in turn: a spelling comes
			// back only after far more than the server's 512-entry
			// request-identity map has seen, so each is new to it and
			// takes the canonical-key path.
			class = "repeat-canonical"
			v := w.variant.Add(1)
			pair := int(v) % (len(w.models) * warmNs)
			m = w.models[pair/warmNs]
			n = m.ns[pair%warmNs]
			mask = 1 + int(v/int64(len(w.models)*warmNs))%(1<<len(m.fields)-1)
		}
		ops = append(ops, op{class: class, run: func(ctx context.Context, c *client) error {
			resp, err := w.solve(ctx, c, class, m, m.request(n, mask))
			if err != nil {
				return err
			}
			m.mu.Lock()
			want := m.answers[n]
			m.mu.Unlock()
			w.e.chk.check(resp.Cached && resp.TotalTime == want,
				"%s: n=%d cached=%v E(T)=%v, want the warmed answer %v", class, n, resp.Cached, resp.TotalTime, want)
			w.repeatDone.Add(1)
			return nil
		}})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// after checks that no op failed and, from the replicas' /stats, that
// the timed phase built no chain and evicted nothing, every repeat was a
// cache hit and every fresh n a checkpoint sweep.
func (w *warmFleet) after(ph *phaseStats) error {
	chk := w.e.chk
	ph.checkNoFailures(chk, "warm-fleet")
	chk.check(ph.chainBuilds == 0, "warm-fleet: %d chain builds in the timed phase, want 0", ph.chainBuilds)
	for i := range ph.st0.replicas {
		a, b := ph.st0.replicas[i], ph.st1.replicas[i]
		chk.check(b.Stats.Exact == a.Stats.Exact, "replica %d: %d exact solves in the timed phase, want 0", i, b.Stats.Exact-a.Stats.Exact)
		chk.check(b.SolverLen == a.SolverLen, "replica %d: solver cache %d → %d entries", i, a.SolverLen, b.SolverLen)
		grew, sweeps := int64(b.CacheLen-a.CacheLen), b.Stats.Checkpoint-a.Stats.Checkpoint
		chk.check(grew == sweeps, "replica %d: result cache grew by %d for %d checkpoint sweeps: an entry was evicted", i, grew, sweeps)
	}
	hits := ph.st1.sum(func(r replicaStats) int64 { return r.Stats.CacheHits }) - ph.st0.sum(func(r replicaStats) int64 { return r.Stats.CacheHits })
	sweeps := ph.st1.sum(func(r replicaStats) int64 { return r.Stats.Checkpoint }) - ph.st0.sum(func(r replicaStats) int64 { return r.Stats.Checkpoint })
	chk.check(hits == w.repeatDone.Load(), "replicas counted %d cache hits for %d repeats", hits, w.repeatDone.Load())
	chk.check(sweeps == w.freshDone.Load(), "replicas counted %d checkpoint sweeps for %d fresh sizes", sweeps, w.freshDone.Load())
	w.repeatDone.Store(0)
	w.freshDone.Store(0)
	return nil
}

// verify checks each model's answers over every n it was asked.
func (w *warmFleet) verify() error {
	for i, m := range w.models {
		checkCurve(w.e.chk, fmt.Sprintf("warm model %d (%s K=%d)", i, m.base.Arch, m.base.K), m.d, m.base.K, m.answers)
	}
	return nil
}

func (w *warmFleet) replay(rp *replayer) error {
	for _, m := range w.models {
		req := m.request(m.ns[len(m.ns)-1], 0)
		if err := rp.model(req, m.ns, m.fresh[0]); err != nil {
			return err
		}
	}
	return nil
}
