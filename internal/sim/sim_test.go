package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(7, tick)
		}
	}
	e.At(0, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*7 {
		t.Fatalf("clock = %d, want %d", e.Now(), 99*7)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %d, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all four", fired)
	}
}

func TestFormatTime(t *testing.T) {
	cases := map[Time]string{
		500:              "500ns",
		2 * Microsecond:  "2.000us",
		3 * Millisecond:  "3.000ms",
		1500000000:       "1.500s",
		12 * Millisecond: "12.000ms",
	}
	for in, want := range cases {
		if got := FormatTime(in); got != want {
			t.Errorf("FormatTime(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/1000 draws", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	f := func(_ uint8) bool {
		x := r.Float64()
		return x >= 0 && x < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("Intn(10) value %d seen %d times, expected ~1000", v, c)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const mean = 5.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.ExpFloat64(mean)
		if x < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-mean) > 0.1 {
		t.Fatalf("exp mean = %g, want ≈%g", got, mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(13)
	const sd = 2.0
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64(sd)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("norm mean = %g, want ≈0", mean)
	}
	if math.Abs(variance-sd*sd) > 0.15 {
		t.Fatalf("norm variance = %g, want ≈%g", variance, sd*sd)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRandPickWeights(t *testing.T) {
	r := NewRand(19)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Pick([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted pick ordering wrong: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("weight-7 fraction %g, want ≈0.7", frac)
	}
}

func TestRandPickPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pick with zero weights did not panic")
		}
	}()
	NewRand(1).Pick([]float64{0, 0})
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(23)
	a := r.Fork(1)
	b := r.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams matched %d/1000 draws", same)
	}
}
