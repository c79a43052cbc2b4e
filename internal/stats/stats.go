// Package stats provides the small statistical toolkit used throughout the
// web-access-failure study: empirical CDFs and quantiles, Pearson
// correlation, knee detection on failure-rate distributions, and failure
// rates.
//
// Everything here operates on plain float64 slices so it can be reused by
// the analysis code (internal/core), the benchmark harness, and the text
// plotting helpers without conversion layers.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty input.
var ErrEmpty = errors.New("stats: empty input")

// CDF is an empirical cumulative distribution function over a sample.
// The zero value is empty; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input slice is copied
// and may be reused by the caller.
func NewCDF(sample []float64) *CDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// P returns the empirical probability P[X <= x].
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. Quantile(0.5) is the median.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.sorted[rank]
}

// Min returns the smallest sample, or NaN when empty.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample, or NaN when empty.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Points returns up to n (x, P[X<=x]) pairs evenly spaced through the sorted
// sample, suitable for plotting. When the sample has fewer than n points,
// every sample point is returned.
func (c *CDF) Points(n int) (xs, ps []float64) {
	m := len(c.sorted)
	if m == 0 || n <= 0 {
		return nil, nil
	}
	if n > m {
		n = m
	}
	xs = make([]float64, 0, n)
	ps = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := (i * (m - 1)) / max(n-1, 1)
		xs = append(xs, c.sorted[idx])
		ps = append(ps, float64(idx+1)/float64(m))
	}
	return xs, ps
}

// Median returns the median of the sample.
func Median(sample []float64) float64 {
	return NewCDF(sample).Quantile(0.5)
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// Pearson returns the Pearson correlation coefficient of the paired samples
// x and y. It returns an error when the lengths differ or fewer than two
// pairs are supplied, and 0 when either sample has zero variance.
//
// The paper reports a coefficient of 0.19 between packet loss rate and
// transaction failure rate (Section 4.1.3); this is the function the
// harness uses to regenerate that number.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(x) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Knee locates the "distinct knee" of a failure-rate distribution as used in
// Section 4.4.3 of the paper: the point separating the dense low-failure
// "normal" mass from the long high-failure tail.
//
// It uses the maximum-distance-to-chord method (Kneedle-style) over the
// sorted sample treated as the curve (i/n, x_i): the knee is the sample
// value whose point is farthest below the straight line joining the curve's
// endpoints. For the heavily skewed distributions in this study this lands
// in the few-percent range, matching the paper's choice of f in {5%, 10%}.
// Returns ErrEmpty for fewer than three samples.
func Knee(sample []float64) (float64, error) {
	if len(sample) < 3 {
		return 0, ErrEmpty
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	n := len(s)
	x0, y0 := 0.0, s[0]
	x1, y1 := 1.0, s[n-1]
	if y1 == y0 {
		return y0, nil
	}
	best, bestDist := s[0], math.Inf(-1)
	for i := 0; i < n; i++ {
		px := float64(i) / float64(n-1)
		py := s[i]
		// Perpendicular distance from (px,py) to the chord, signed so
		// that points *below* the chord (the convex knee of an upward
		// curve) are positive.
		d := ((x1-x0)*(y0-py) - (x0-px)*(y1-y0)) /
			math.Hypot(x1-x0, y1-y0)
		if d > bestDist {
			bestDist = d
			best = py
		}
	}
	return best, nil
}

// Rate returns failures/total as a float64 and 0 when total is 0.
func Rate(failures, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(failures) / float64(total)
}
