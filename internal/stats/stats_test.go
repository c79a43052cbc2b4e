package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if got := c.P(1.0); got != 0 {
		t.Errorf("P on empty = %v, want 0", got)
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Errorf("Quantile on empty = %v, want NaN", c.Quantile(0.5))
	}
	if !math.IsNaN(c.Min()) || !math.IsNaN(c.Max()) {
		t.Errorf("Min/Max on empty should be NaN")
	}
}

func TestCDFBasic(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.5}, {3.9, 0.75}, {4, 1}, {99, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0.5); got != 30 {
		t.Errorf("median = %v, want 30", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("q0 = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("q1 = %v, want 50", got)
	}
	if got := c.Quantile(0.2); got != 10 {
		t.Errorf("q0.2 = %v, want 10", got)
	}
	if got := c.Quantile(0.95); got != 50 {
		t.Errorf("q0.95 = %v, want 50", got)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{5, 1, 3}
	c := NewCDF(in)
	in[0] = 100
	if got := c.Max(); got != 5 {
		t.Errorf("Max = %v after mutating input, want 5", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points(5) lengths = %d,%d", len(xs), len(ps))
	}
	if !sort.Float64sAreSorted(xs) {
		t.Errorf("xs not sorted: %v", xs)
	}
	if ps[len(ps)-1] != 1.0 {
		t.Errorf("last p = %v, want 1.0", ps[len(ps)-1])
	}
	// More points requested than samples: return all samples.
	xs, _ = c.Points(100)
	if len(xs) != 10 {
		t.Errorf("Points(100) over 10 samples returned %d", len(xs))
	}
	xs, ps = c.Points(0)
	if xs != nil || ps != nil {
		t.Errorf("Points(0) should be nil")
	}
}

func TestQuantileProperty(t *testing.T) {
	// Quantile is monotone in q and always returns a sample element.
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		c := NewCDF(sample)
		a, b := c.Quantile(q1), c.Quantile(q2)
		if a > b {
			return false
		}
		found := false
		for _, v := range sample {
			if v == a {
				found = true
				break
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCDFPInverseProperty(t *testing.T) {
	// For any sample element x, P(x) >= rank of x / n.
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		c := NewCDF(sample)
		for _, v := range sample {
			if c.P(v) <= 0 || c.P(v) > 1 {
				return false
			}
		}
		return c.P(c.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanMedianStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(s); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Median([]float64{1, 3, 2}); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Errorf("Mean of empty should be NaN")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r, err := Pearson(x, yPos); err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson positive = %v, %v; want 1", r, err)
	}
	if r, err := Pearson(x, yNeg); err != nil || !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson negative = %v, %v; want -1", r, err)
	}
	if r, err := Pearson(x, []float64{3, 3, 3, 3, 3}); err != nil || r != 0 {
		t.Errorf("Pearson constant = %v, %v; want 0", r, err)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Error("Pearson length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("Pearson single pair should error")
	}
}

func TestPearsonBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for j := range x {
			x[j] = rng.NormFloat64() * 100
			y[j] = rng.NormFloat64() * 100
		}
		r, err := Pearson(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("Pearson out of bounds: %v", r)
		}
	}
}

func TestKnee(t *testing.T) {
	// A distribution like the paper's Figure 4: most mass near zero,
	// a thin tail of high failure rates. The knee should land in the
	// low-failure region (below the tail values, at or above the bulk).
	sample := make([]float64, 0, 1000)
	for i := 0; i < 950; i++ {
		sample = append(sample, float64(i%5)/100) // 0..4%
	}
	for i := 0; i < 50; i++ {
		sample = append(sample, 0.10+float64(i)/100) // 10%..59%
	}
	k, err := Knee(sample)
	if err != nil {
		t.Fatal(err)
	}
	if k < 0 || k > 0.10 {
		t.Errorf("Knee = %v, want within [0, 0.10]", k)
	}
}

func TestKneeDegenerate(t *testing.T) {
	if _, err := Knee([]float64{1, 2}); err == nil {
		t.Error("Knee with <3 samples should error")
	}
	k, err := Knee([]float64{5, 5, 5, 5})
	if err != nil || k != 5 {
		t.Errorf("Knee constant = %v, %v; want 5, nil", k, err)
	}
}

func TestRate(t *testing.T) {
	if got := Rate(1, 4); got != 0.25 {
		t.Errorf("Rate = %v, want 0.25", got)
	}
	if got := Rate(5, 0); got != 0 {
		t.Errorf("Rate div0 = %v, want 0", got)
	}
}
