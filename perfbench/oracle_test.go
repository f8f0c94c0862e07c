package main

import (
	"math"
	"strings"
	"testing"
)

func TestMVASelfTest(t *testing.T) {
	if err := mvaSelfTest(); err != nil {
		t.Fatal(err)
	}
}

// The lower bound is the larger of the bottleneck, the K-way share of
// the total work and one task's own demand.
func TestLowerBound(t *testing.T) {
	d := demands{delay: []float64{4}, queue: []float64{3, 1}}
	for _, c := range []struct {
		k, n int
		want float64
	}{
		{k: 1, n: 1, want: 8},       // one task: Dtotal
		{k: 1, n: 10, want: 80},     // serial: n·Dtotal
		{k: 4, n: 10, want: 30},     // bottleneck n·Dmax beats n·Dtotal/K = 20
		{k: 2, n: 10, want: 40},     // n·Dtotal/K beats n·Dmax
		{k: 100, n: 2, want: 8 * 1}, // Dtotal beats 2·3
	} {
		if got := lowerBound(d, c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("lowerBound(k=%d, n=%d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
}

// checkCurve flags a falling curve and a wrong slope, and passes the
// exact MVA line.
func TestCheckCurve(t *testing.T) {
	d := demandsOf("central", 3, nil, nil)
	x := mva(d, 3)
	line := map[int]float64{30: 100, 40: 100 + 10/x, 60: 100 + 30/x}
	chk := &checker{}
	checkCurve(chk, "line", d, 3, line)
	if !chk.ok() {
		t.Fatalf("exact MVA line rejected: %v", chk.fails)
	}
	bent := map[int]float64{30: 100, 40: 100 + 10/x*(1+1e-6)}
	chk = &checker{}
	checkCurve(chk, "bent", d, 3, bent)
	if chk.ok() || !strings.Contains(chk.fails[0], "MVA") {
		t.Fatalf("slope off by 1e-6 accepted: %v", chk.fails)
	}
	falling := map[int]float64{2: 50, 3: 49}
	chk = &checker{}
	checkCurve(chk, "falling", d, 3, falling)
	if chk.ok() {
		t.Fatal("falling curve accepted")
	}
}
