package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (rank q·(n−1)), so the 0.5 quantile is the median
// and the 0 and 1 quantiles are the extremes. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	rank := q * float64(n-1)
	lo := int(math.Floor(rank))
	if lo+1 >= n {
		return s[n-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles taken the way Python's
// statistics.quantiles(xs, n=4) takes them (the "exclusive" method,
// rank p·(n+1)). It is the steadiness figure the benchmark is tuned
// against; 0 when the median is 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	excl := func(p float64) float64 {
		m := float64(n + 1)
		j := int(math.Floor(p * m))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := p*m - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (excl(0.75) - excl(0.25)) / math.Abs(med)
}

// ratio returns num/den, or 0 when the base den is 0, so a metric whose
// base is empty reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// calibrateClock measures the cost of one clock read (time.Since on a
// monotonic base) in ns: the median over several batches of
// back-to-back reads. The traced run subtracts it from every timed
// call.
func calibrateClock() float64 {
	base := time.Now()
	const batch = 200000
	var per []float64
	for r := 0; r < 7; r++ {
		t0 := time.Since(base)
		var last time.Duration
		for i := 0; i < batch; i++ {
			last = time.Since(base)
		}
		per = append(per, float64(last-t0)/batch)
	}
	return median(per)
}

// depthDist counts how often each queue depth was sampled.
type depthDist map[int64]int64

func (d depthDist) merge(o depthDist) {
	for k, n := range o {
		d[k] += n
	}
}

// summary returns the sample count, mean and peak depth.
func (d depthDist) summary() (n int64, mean float64, peak int64) {
	var sum float64
	for k, c := range d {
		n += c
		sum += float64(k) * float64(c)
		peak = max(peak, k)
	}
	return n, ratio(sum, float64(n)), peak
}

// quantile returns the smallest depth with at least a share q of the
// samples at or below it.
func (d depthDist) quantile(q float64) int64 {
	keys := make([]int64, 0, len(d))
	var n int64
	for k, c := range d {
		keys = append(keys, k)
		n += c
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var seen int64
	for _, k := range keys {
		seen += d[k]
		if float64(seen) >= q*float64(n) {
			return k
		}
	}
	return 0
}

// String reports the distribution with its base, the sample count.
func (d depthDist) String() string {
	n, mean, peak := d.summary()
	return fmt.Sprintf("%d samples: mean %.1f, p50 %d, p90 %d, p99 %d, peak %d",
		n, mean, d.quantile(0.5), d.quantile(0.9), d.quantile(0.99), peak)
}
