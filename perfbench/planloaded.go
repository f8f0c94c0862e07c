package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"finwl/internal/core"
	"finwl/internal/serve"
)

// plan-loaded: nproc clients each run capacity-planning sessions on
// fresh models against one embedded server: a /batch sweep of E(T)
// over planNs workload sizes, then a /stream scenario on the same
// model, open and closed in turn. Every core is busy.

const (
	planK        = 8   // population of every session's model
	planNs       = 20  // batch sweep points
	planSpan     = 400 // sweep points past the fill regime lie in [8K, 8K+planSpan)
	planJobTasks = 3   // tasks per stream job (also one of the sweep points)
	planJobs     = 2   // open mode: jobs in the stream
	planPool     = 2   // closed mode: customers
	planVerify   = 2   // sessions per client re-checked after the phase
)

// planRound is one client round: which sessions are open streams and
// which models have H2 storage.
var planRound = []struct{ open, h2 bool }{
	{true, false}, {false, false}, {true, false}, {false, false}, {true, false}, {false, false},
	{true, true}, {false, true},
}

// planSession is one session's inputs and what came back.
type planSession struct {
	model  serve.Request // N unset
	d      demands
	ns     []int
	open   bool
	points map[int]float64 // batch answers by n
}

type planLoaded struct {
	e    *env
	rngs []*rand.Rand

	mu   sync.Mutex
	kept []*planSession // the first planVerify·nclients sessions to finish
}

func startPlanLoaded(e *env) runner {
	w := &planLoaded{e: e}
	for i := 0; i < e.nclients; i++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(e.opt.seed*1000+int64(i)+1)))
	}
	return w
}

// newSession draws a fresh model and its sweep: job_tasks, sizes in
// the fill regime and sizes past it.
func newSession(rng *rand.Rand, open, h2 bool) *planSession {
	s := &planSession{open: open, points: map[int]float64{}}
	s.model = serve.Request{Arch: "central", K: planK, App: &serve.AppSpec{X: perturb(rng, paperX), Y: perturb(rng, paperY)}}
	if h2 {
		s.model.CV2 = &serve.CV2Spec{Remote: *perturb(rng, 4)}
	}
	s.d = requestDemands(&s.model)
	fill := fillFactor * planK
	seen := map[int]bool{planJobTasks: true}
	s.ns = []int{planJobTasks}
	for len(s.ns) < planNs/2 {
		if n := 1 + rng.Intn(fill-1); !seen[n] {
			seen[n] = true
			s.ns = append(s.ns, n)
		}
	}
	for len(s.ns) < planNs {
		if n := fill + rng.Intn(planSpan); !seen[n] {
			seen[n] = true
			s.ns = append(s.ns, n)
		}
	}
	sort.Ints(s.ns)
	return s
}

// streamRequest is the session's stream scenario, scaled by the
// single-job time t1 = E(T(job_tasks)).
func (s *planSession) streamRequest(jobs int, t1 float64) serve.StreamRequest {
	sr := serve.StreamRequest{Arch: s.model.Arch, K: s.model.K, App: s.model.App, CV2: s.model.CV2, JobTasks: planJobTasks}
	for _, f := range []float64{0.25, 0.5, 1, 2, 3} {
		sr.Probes = append(sr.Probes, serve.Num(f*t1))
	}
	if s.open {
		sr.Jobs = jobs
		sr.Arrival = &serve.LawSpec{Process: "poisson", Mean: serve.Num(0.5 * t1)}
	} else {
		sr.Customers = planPool
		sr.Think = &serve.LawSpec{Process: "poisson", Mean: serve.Num(t1)}
	}
	return sr
}

func (w *planLoaded) round(cl int) []op {
	rng := w.rngs[cl]
	var ops []op
	for _, kind := range planRound {
		s := newSession(rng, kind.open, kind.h2)
		class := "closed"
		if kind.open {
			class = "open"
		}
		if kind.h2 {
			class += "-h2"
		}
		ops = append(ops, op{class: class, run: func(ctx context.Context, c *client) error {
			return w.session(ctx, c, s)
		}})
	}
	return ops
}

func (w *planLoaded) session(ctx context.Context, c *client, s *planSession) error {
	chk := w.e.chk
	reqs := make([]serve.Request, len(s.ns))
	for i, n := range s.ns {
		reqs[i] = s.model
		reqs[i].N = n
	}
	var items []serve.BatchItem
	if err := c.post(ctx, "/batch", reqs, &items); err != nil {
		return err
	}
	if len(items) != len(reqs) {
		return fmt.Errorf("batch: %d items for %d jobs", len(items), len(reqs))
	}
	for i, it := range items {
		what := fmt.Sprintf("batch n=%d", s.ns[i])
		if it.Response == nil {
			return &opError{Status: 200, Code: it.Code, Msg: what + ": " + it.Error}
		}
		r := it.Response
		c.noteQueue(r.Timings)
		chk.check(r.Fidelity == serve.FidelityExact || r.Fidelity == serve.FidelityCheckpoint, "%s: fidelity %q", what, r.Fidelity)
		checkAnswer(chk, what, s.d, planK, s.ns[i], r.TotalTime)
		s.points[s.ns[i]] = r.TotalTime
	}
	checkCurve(chk, "batch sweep", s.d, planK, s.points)

	t1 := s.points[planJobTasks]
	var sr serve.StreamResponse
	sreq := s.streamRequest(planJobs, t1)
	if err := c.post(ctx, "/stream", &sreq, &sr); err != nil {
		return err
	}
	c.noteQueue(sr.Timings)
	checkStream(chk, s, &sreq, &sr, t1)
	w.mu.Lock()
	if len(w.kept) < planVerify*w.e.nclients {
		w.kept = append(w.kept, s)
	}
	w.mu.Unlock()
	return nil
}

// checkStream applies the stream bounds: an open stream cannot drain
// before its last job arrives and that job alone has finished, nor
// faster than the whole work allows; the drain CDF is a CDF; the mean
// tasks in system stays within [0, all tasks].
func checkStream(chk *checker, s *planSession, req *serve.StreamRequest, r *serve.StreamResponse, t1 float64) {
	const tol = 1e-9
	what := "stream " + r.Mode
	chk.check(r.Fidelity == serve.FidelityExact, "%s: fidelity %q, want exact", what, r.Fidelity)
	total := float64(req.JobTasks * (req.Jobs + req.Customers))
	for i, m := range r.MeanTasks {
		chk.check(float64(m) >= -tol && float64(m) <= total*(1+tol), "%s: mean tasks %v at probe %d outside [0, %v]", what, float64(m), i, total)
	}
	if !s.open {
		chk.check(r.Mode == "closed" && len(r.MeanTasks) == len(req.Probes), "%s: mode %q with %d mean-task values for %d probes", what, r.Mode, len(r.MeanTasks), len(req.Probes))
		return
	}
	chk.check(r.Mode == "open" && len(r.DrainCDF) == len(req.Probes), "%s: mode %q with %d CDF values for %d probes", what, r.Mode, len(r.DrainCDF), len(req.Probes))
	drain := float64(r.MeanDrain)
	jobs := float64(req.Jobs)
	arrivals := (jobs-1)*float64(req.Arrival.Mean) + t1
	chk.check(drain >= arrivals*(1-tol), "%s: mean drain %v below (jobs−1)·arrival mean + E(T(job)) = %v", what, drain, arrivals)
	work := lowerBound(s.d, req.K, req.Jobs*req.JobTasks)
	chk.check(drain >= work*(1-tol), "%s: mean drain %v below the throughput bound %v", what, drain, work)
	prev := 0.0
	for i, p := range r.DrainCDF {
		v := float64(p)
		chk.check(v >= prev-tol && v <= 1+tol, "%s: drain CDF %v at probe %d not monotone in [0,1] (previous %v)", what, v, i, prev)
		prev = math.Max(prev, v)
	}
}

func (w *planLoaded) warm() error {
	c := &client{e: w.e, opID: newOpID()}
	rng := rand.New(rand.NewSource(^w.e.opt.seed))
	for _, kind := range planRound {
		if err := w.session(context.Background(), c, newSession(rng, kind.open, kind.h2)); err != nil {
			return err
		}
	}
	w.kept = nil
	return nil
}

func (w *planLoaded) after(ph *phaseStats) error {
	ph.checkNoFailures(w.e.chk, "plan-loaded")
	return nil
}

// verify re-checks the first sessions to finish: a one-job open
// stream must drain in exactly E(T(job_tasks)), and the batch's swept
// answers must equal per-point solves of the same model.
func (w *planLoaded) verify() error {
	c := &client{e: w.e, opID: newOpID()}
	ctx := context.Background()
	for _, s := range w.kept {
		t1 := s.points[planJobTasks]
		one := *s
		one.open = true
		sreq := one.streamRequest(1, t1)
		var sr serve.StreamResponse
		if err := c.post(ctx, "/stream", &sreq, &sr); err != nil {
			return fmt.Errorf("one-job stream: %w", err)
		}
		w.e.chk.check(math.Abs(float64(sr.MeanDrain)-t1) <= 1e-9*t1,
			"one-job open stream drains in %v, single workload E(T(%d)) = %v", float64(sr.MeanDrain), planJobTasks, t1)

		m := s.model
		m.N = planJobTasks
		net, err := m.BuildNetwork()
		if err != nil {
			return err
		}
		solver, err := core.NewSolverCtx(ctx, net, planK)
		if err != nil {
			return err
		}
		for _, n := range []int{s.ns[1], s.ns[len(s.ns)-1]} {
			res, err := solver.SolveCtx(ctx, n)
			if err != nil {
				return err
			}
			got := s.points[n]
			w.e.chk.check(math.Abs(got-res.TotalTime) <= 1e-12*res.TotalTime,
				"batch item n=%d: %v, per-point solve %v", n, got, res.TotalTime)
		}
	}
	return nil
}

func (w *planLoaded) replay(rp *replayer) error {
	for _, s := range w.kept {
		m := s.model
		m.N = s.ns[len(s.ns)-1]
		if err := rp.model(m, s.ns, m.N+1); err != nil {
			return err
		}
		sreq := s.streamRequest(planJobs, s.points[planJobTasks])
		if err := rp.stream(sreq); err != nil {
			return err
		}
	}
	return nil
}
