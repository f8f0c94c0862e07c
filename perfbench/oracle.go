package main

import (
	"fmt"
	"math"
	"sort"

	"finwl/internal/serve"
)

// This file holds the benchmark's own model of the paper's clusters,
// built from a request's parameters alone: per-task service demands,
// an exact mean-value analysis (MVA) of the closed network, and the
// bounds every answer must satisfy. None of it calls the solver.

// Paper §6 workload, used where a request leaves a field out.
const (
	paperX = 8.7
	paperC = 0.5
	paperY = 2.75
	paperB = 0.2
)

// slopeTol is the relative tolerance of the MVA slope check; the two
// agree to about 3e-13 on the cluster models once n ≥ fillFactor·K.
const (
	slopeTol   = 1e-9
	fillFactor = 8
)

// demands are a task's total service demand per station of the closed
// network the cluster becomes once K tasks are in it.
type demands struct {
	delay       []float64 // infinite-server stations (one per task)
	queue       []float64 // single-server FCFS stations
	exponential bool      // product form: MVA is exact
}

func (d demands) total() float64 {
	var t float64
	for _, v := range d.delay {
		t += v
	}
	for _, v := range d.queue {
		t += v
	}
	return t
}

func (d demands) maxQueue() float64 {
	var m float64
	for _, v := range d.queue {
		m = math.Max(m, v)
	}
	return m
}

func or(p *float64, def float64) float64 {
	if p != nil {
		return *p
	}
	return def
}

// expOrUnset reports whether a CV² override leaves a component
// exponential.
func expOrUnset(cv2 float64) bool { return cv2 == 0 || cv2 == 1 }

// demandsOf derives the per-station demands of a cluster-form request:
// a task spends C·X on its CPU and (1−C)·X on its local disk (both
// private, so delay stations), B·Y on the shared channel and Y at
// remote storage — one shared server in the central model, spread
// evenly over the K disks in the distributed one.
func demandsOf(arch string, k int, app *serve.AppSpec, cv2 *serve.CV2Spec) demands {
	if app == nil {
		app = &serve.AppSpec{}
	}
	x, c := or(app.X, paperX), or(app.C, paperC)
	y, b := or(app.Y, paperY), or(app.B, paperB)
	var cv serve.CV2Spec
	if cv2 != nil {
		cv = *cv2
	}
	if arch == "distributed" {
		d := demands{delay: []float64{c * x}, queue: []float64{b * y}}
		for i := 0; i < k; i++ {
			d.queue = append(d.queue, ((1-c)*x+y)/float64(k))
		}
		d.exponential = expOrUnset(cv.CPU) && expOrUnset(cv.Comm) && expOrUnset(cv.Remote)
		return d
	}
	return demands{
		delay:       []float64{c * x, (1 - c) * x},
		queue:       []float64{b * y, y},
		exponential: expOrUnset(cv.CPU) && expOrUnset(cv.Disk) && expOrUnset(cv.Comm) && expOrUnset(cv.Remote),
	}
}

func requestDemands(r *serve.Request) demands { return demandsOf(r.Arch, r.K, r.App, r.CV2) }

// mva is the exact mean-value analysis of a closed product-form
// network: the throughput (tasks per unit time) with k tasks inside.
func mva(d demands, k int) float64 {
	q := make([]float64, len(d.queue))
	r := make([]float64, len(d.queue))
	var z float64
	for _, v := range d.delay {
		z += v
	}
	var x float64
	for n := 1; n <= k; n++ {
		total := z
		for i, v := range d.queue {
			r[i] = v * (1 + q[i])
			total += r[i]
		}
		x = float64(n) / total
		for i := range q {
			q[i] = x * r[i]
		}
	}
	return x
}

// lowerBound is the least E(T) any correct answer for n tasks on k
// workstations can have: the bottleneck station alone needs n·Dmax,
// at most k tasks share the total work n·Dtot, and one task needs
// Dtot.
func lowerBound(d demands, k, n int) float64 {
	return math.Max(float64(n)*math.Max(d.maxQueue(), d.total()/float64(k)), d.total())
}

// checkAnswer applies the per-answer checks to one E(T).
func checkAnswer(chk *checker, what string, d demands, k, n int, et float64) {
	lb := lowerBound(d, k, n)
	chk.check(!math.IsNaN(et) && !math.IsInf(et, 0) && et >= lb*(1-1e-12),
		"%s: E(T)=%v below the throughput/single-task bound %v (k=%d n=%d)", what, et, lb, k, n)
}

// checkCurve checks a model's answers over several n: E(T) rises
// strictly with n, and on an exponential model every step between
// points past the fill regime has slope 1/X(K) from the MVA.
func checkCurve(chk *checker, what string, d demands, k int, pts map[int]float64) {
	ns := make([]int, 0, len(pts))
	for n := range pts {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	x := mva(d, k)
	for i := 1; i < len(ns); i++ {
		n1, n2 := ns[i-1], ns[i]
		e1, e2 := pts[n1], pts[n2]
		chk.check(e2 > e1, "%s: E(T) not rising in n: E(T(%d))=%v, E(T(%d))=%v", what, n1, e1, n2, e2)
		if d.exponential && n1 >= fillFactor*k {
			want := float64(n2-n1) / x
			chk.check(math.Abs((e2-e1)-want) <= slopeTol*want,
				"%s: E(T(%d))−E(T(%d)) = %v, MVA says %v (rel err %.3g)", what, n2, n1, e2-e1, want, math.Abs((e2-e1)-want)/want)
		}
	}
}

// mvaSelfTest checks the MVA against closed forms.
func mvaSelfTest() error {
	close := func(got, want float64) bool { return math.Abs(got-want) <= 1e-13*math.Abs(want) }
	central := demandsOf("central", 5, nil, nil)
	if x := mva(central, 1); !close(x, 1/central.total()) {
		return fmt.Errorf("K=1: X=%v, want 1/Dtotal=%v", x, 1/central.total())
	}
	for _, k := range []int{1, 2, 7} {
		if x := mva(demands{delay: []float64{3, 1.5}}, k); !close(x, float64(k)/4.5) {
			return fmt.Errorf("delay only K=%d: X=%v, want K/Dtotal", k, x)
		}
		if x := mva(demands{queue: []float64{2.5}}, k); !close(x, 1/2.5) {
			return fmt.Errorf("one queue K=%d: X=%v, want 1/D", k, x)
		}
		// M balanced queues of demand D: X(k) = k / (D·(k+M−1)).
		if x := mva(demands{queue: []float64{2, 2, 2}}, k); !close(x, float64(k)/(2*float64(k+2))) {
			return fmt.Errorf("balanced K=%d: X=%v, want k/(D(k+M-1))", k, x)
		}
	}
	// Large K saturates at the bottleneck: X → 1/Dmax.
	if x := mva(central, 200); math.Abs(x-1/central.maxQueue()) > 1e-6/central.maxQueue() {
		return fmt.Errorf("K=200: X=%v, want about 1/Dmax=%v", x, 1/central.maxQueue())
	}
	return nil
}
