package main

import (
	"context"
	"fmt"
	"time"

	"finwl/internal/core"
	"finwl/internal/network"
	"finwl/internal/obs"
	"finwl/internal/serve"
	"finwl/internal/sparse"
	"finwl/internal/stream"
)

// replayer times each distinct model of a traced run through the
// layers' public functions, one call at a time on an idle process, and
// keeps one sample per model and metric.
type replayer struct {
	ctx     context.Context
	samples map[string][]float64
}

func newReplayer() *replayer {
	return &replayer{ctx: context.Background(), samples: map[string][]float64{}}
}

func (rp *replayer) add(name string, v float64) { rp.samples[name] = append(rp.samples[name], v) }

// values is each metric's mean over the replayed models.
func (rp *replayer) values() map[string]float64 {
	out := map[string]float64{}
	for name, xs := range rp.samples {
		var s float64
		for _, x := range xs {
			s += x
		}
		out[name] = s / float64(len(xs))
	}
	return out
}

// timed runs f and returns its wall time and the process CPU time it
// used.
func timed(f func() error) (wall, cpu time.Duration, err error) {
	c0, t0 := cpuTime(), time.Now()
	err = f()
	return time.Since(t0), cpuTime() - c0, err
}

// repeats is how often the sub-millisecond calls are timed; their
// median is the sample.
const repeats = 9

func (rp *replayer) micro(f func() error) (time.Duration, error) {
	xs := make([]float64, repeats)
	for i := range xs {
		wall, _, err := timed(f)
		if err != nil {
			return 0, err
		}
		xs[i] = float64(wall)
	}
	return time.Duration(median(xs)), nil
}

func levelFactorizations(path string) int64 {
	return obs.Default.Counter("finwl_level_factorizations_total", "", obs.L("path", path)).Value()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// model takes one request's model through network build, chain build,
// factorization, a full solve at req.N, a sweep over ns (when given)
// and a single checkpoint sweep at checkN on the factored solver.
func (rp *replayer) model(req serve.Request, ns []int, checkN int) error {
	var net *network.Network
	d, err := rp.micro(func() (err error) { net, err = req.BuildNetwork(); return })
	if err != nil {
		return fmt.Errorf("BuildNetwork: %w", err)
	}
	rp.add("cluster.build_us", us(d))

	var chain *network.Chain
	wall, cpu, err := timed(func() (err error) { chain, err = network.NewChainCtx(rp.ctx, net, req.K); return })
	if err != nil {
		return fmt.Errorf("NewChainCtx: %w", err)
	}
	rp.add("network.chain_ms", ms(wall))
	rp.add("network.chain_cpu_ratio", float64(cpu)/float64(wall))
	var states, nnz int
	for k, lv := range chain.Levels {
		states += chain.D(k)
		for _, m := range []*sparse.CSR{lv.P, lv.Q, lv.R} {
			if m != nil {
				nnz += m.NNZ()
			}
		}
	}
	rp.add("network.states", float64(states))
	rp.add("network.nnz", float64(nnz))

	sparse0, dense0 := levelFactorizations("sparse"), levelFactorizations("dense")
	var solver *core.Solver
	wall, cpu, err = timed(func() (err error) { solver, err = core.NewSolverFromChainCtx(rp.ctx, chain); return })
	if err != nil {
		return fmt.Errorf("NewSolverFromChainCtx: %w", err)
	}
	rp.add("core.factor_ms", ms(wall))
	rp.add("core.factor_cpu_ratio", float64(cpu)/float64(wall))
	rp.add("core.sparse_levels", float64(levelFactorizations("sparse")-sparse0))
	rp.add("core.dense_levels", float64(levelFactorizations("dense")-dense0))

	wall, _, err = timed(func() error { _, err := solver.SolveCtx(rp.ctx, req.N); return err })
	if err != nil {
		return fmt.Errorf("SolveCtx: %w", err)
	}
	rp.add("core.epoch_us", us(wall)/float64(req.N))

	if len(ns) > 0 {
		wall, _, err = timed(func() error {
			_, errs := solver.SolveSweepEachCtx(rp.ctx, ns)
			for _, e := range errs {
				if e != nil {
					return e
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("SolveSweepEachCtx: %w", err)
		}
		rp.add("core.sweep_point_us", us(wall)/float64(len(ns)))
	}

	d, err = rp.micro(func() error { _, err := solver.SolveSweepCtx(rp.ctx, []int{checkN}); return err })
	if err != nil {
		return fmt.Errorf("SolveSweepCtx: %w", err)
	}
	rp.add("core.checkpoint_us", us(d))
	return nil
}

// stream takes one stream scenario through pricing, the level chain at
// the scenario's cap and the whole stream solve.
func (rp *replayer) stream(sreq serve.StreamRequest) error {
	cfg, err := sreq.BuildConfig(0)
	if err != nil {
		return fmt.Errorf("BuildConfig: %w", err)
	}
	var states int64
	d, err := rp.micro(func() (err error) { states, _, err = stream.Price(cfg); return })
	if err != nil {
		return fmt.Errorf("stream.Price: %w", err)
	}
	rp.add("stream.price_us", us(d))
	rp.add("stream.states", float64(states))

	cap := cfg.K
	if total := cfg.JobTasks * (cfg.Jobs + cfg.Customers); total < cap {
		cap = total
	}
	chainWall, _, err := timed(func() error { _, err := network.NewChainCtx(rp.ctx, cfg.Net, cap); return err })
	if err != nil {
		return fmt.Errorf("stream chain: %w", err)
	}
	probes := make([]float64, len(sreq.Probes))
	for i, p := range sreq.Probes {
		probes[i] = float64(p)
	}
	wall, _, err := timed(func() error { _, err := stream.Solve(rp.ctx, cfg, probes); return err })
	if err != nil {
		return fmt.Errorf("stream.Solve: %w", err)
	}
	rp.add("stream.chain_ms", ms(chainWall))
	rp.add("stream.graph_ms", ms(wall-chainWall))
	return nil
}
