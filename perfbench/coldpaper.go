package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"finwl/internal/serve"
)

// cold-paper: one client sends paper-scale models no cache has seen,
// through a router over two replicas. Chain build, factorization and
// the epoch kernels do nearly all the work.

// coldClass is one kind of cold request and its share of a round.
type coldClass struct {
	name  string
	count int // ops per round
	arch  string
	k, n  int
	h2    []string // components given an H2 service law
	// overBudget marks the paper's distributed K=8 model, which is
	// priced above a replica's whole admission budget: every such op
	// fails today and is counted in "failed".
	overBudget bool
}

// coldClasses: the latencies sort as listed, with central-k8-h2x2 and
// distributed-k5 close together (about 6, 15, 15 and 220 ms here).
// With these counts p50 falls at 40% of the middle pair's share and
// p90 at the median of distributed-k6, each well away from a class
// boundary.
var coldClasses = []coldClass{
	{name: "central-k8-h2", count: 3, arch: "central", k: 8, n: 105, h2: []string{"remote"}},
	{name: "central-k8-h2x2", count: 4, arch: "central", k: 8, n: 105, h2: []string{"remote", "comm"}},
	{name: "distributed-k5", count: 1, arch: "distributed", k: 5, n: 200},
	{name: "distributed-k6", count: 2, arch: "distributed", k: 6, n: 200},
	{name: "distributed-k8", count: 1, arch: "distributed", k: 8, n: 200, overBudget: true},
}

type coldPaper struct {
	e   *env
	rng *rand.Rand // one client: no locking needed for round()

	mu    sync.Mutex
	last  map[string]coldAnswer // newest successful answer per class
	first []serve.Request       // the first round's models (trace replay)
}

type coldAnswer struct {
	req serve.Request
	et  float64
}

func startColdPaper(e *env) runner {
	return &coldPaper{e: e, rng: rand.New(rand.NewSource(e.opt.seed)), last: map[string]coldAnswer{}}
}

// perturb scales v by a factor drawn uniformly from [0.9, 1.1].
func perturb(rng *rand.Rand, v float64) *float64 {
	x := v * (0.9 + 0.2*rng.Float64())
	return &x
}

// coldRequest draws a fresh model of class c: every application
// parameter (and every H2 CV²) is perturbed, so no cache has seen it.
func coldRequest(rng *rand.Rand, c coldClass) serve.Request {
	req := serve.Request{
		Arch: c.arch, K: c.k, N: c.n,
		App: &serve.AppSpec{X: perturb(rng, paperX), C: perturb(rng, paperC), Y: perturb(rng, paperY), B: perturb(rng, paperB)},
	}
	if len(c.h2) > 0 {
		req.CV2 = &serve.CV2Spec{}
		for _, comp := range c.h2 {
			v := *perturb(rng, 4)
			switch comp {
			case "remote":
				req.CV2.Remote = v
			case "comm":
				req.CV2.Comm = v
			}
		}
	}
	return req
}

func (w *coldPaper) solve(ctx context.Context, c *client, class coldClass, req serve.Request) error {
	var resp serve.Response
	if err := c.post(ctx, "/solve", &req, &resp); err != nil {
		return err
	}
	c.noteQueue(resp.Timings)
	chk := w.e.chk
	what := fmt.Sprintf("cold %s", class.name)
	chk.check(resp.Fidelity == serve.FidelityExact && !resp.Cached, "%s: fidelity %q cached=%v, want a fresh exact solve", what, resp.Fidelity, resp.Cached)
	checkAnswer(chk, what, requestDemands(&req), req.K, req.N, resp.TotalTime)
	w.mu.Lock()
	w.last[class.name] = coldAnswer{req: req, et: resp.TotalTime}
	w.mu.Unlock()
	return nil
}

// warm sends one model of each answerable class, drawn from a stream
// apart from the timed one: it opens the connections and brings the
// solver's pools and the heap to their working size.
func (w *coldPaper) warm() error {
	rng := rand.New(rand.NewSource(^w.e.opt.seed))
	c := &client{e: w.e, opID: newOpID()}
	for _, class := range coldClasses {
		if class.overBudget {
			continue
		}
		if err := w.solve(context.Background(), c, class, coldRequest(rng, class)); err != nil {
			return fmt.Errorf("%s: %w", class.name, err)
		}
	}
	w.last = map[string]coldAnswer{}
	return nil
}

func (w *coldPaper) round(int) []op {
	var ops []op
	recordFirst := w.first == nil
	for _, class := range coldClasses {
		for i := 0; i < class.count; i++ {
			class, req := class, coldRequest(w.rng, class)
			ops = append(ops, op{class: class.name, run: func(ctx context.Context, c *client) error {
				return w.solve(ctx, c, class, req)
			}})
			if recordFirst && i == 0 && !class.overBudget {
				w.first = append(w.first, req)
			}
		}
	}
	w.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (w *coldPaper) after(ph *phaseStats) error {
	for key := range ph.failures {
		class, _, _ := strings.Cut(key, " ")
		w.e.chk.check(class == "distributed-k8", "unexpected failure of a %s op (%s)", class, key)
	}
	return nil
}

// verify re-asks each class's newest model at n+40: the two answers
// must rise with n and, on the exponential classes, differ by exactly
// 40/X(K) from the MVA.
func (w *coldPaper) verify() error {
	c := &client{e: w.e, opID: newOpID()}
	for _, class := range coldClasses {
		a, ok := w.last[class.name]
		if !ok {
			continue
		}
		req := a.req
		req.N += 40
		var resp serve.Response
		if err := c.post(context.Background(), "/solve", &req, &resp); err != nil {
			return fmt.Errorf("%s at n=%d: %w", class.name, req.N, err)
		}
		what := "cold verify " + class.name
		w.e.chk.check(resp.Fidelity == serve.FidelityExact || resp.Fidelity == serve.FidelityCheckpoint, "%s: fidelity %q", what, resp.Fidelity)
		d := requestDemands(&req)
		checkAnswer(w.e.chk, what, d, req.K, req.N, resp.TotalTime)
		checkCurve(w.e.chk, what, d, req.K, map[int]float64{a.req.N: a.et, req.N: resp.TotalTime})
	}
	return nil
}

func (w *coldPaper) replay(rp *replayer) error {
	for _, req := range w.first {
		if err := rp.model(req, nil, req.N+40); err != nil {
			return err
		}
	}
	return nil
}
