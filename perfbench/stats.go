package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the closest ranks: rank h = (n−1)q. xs is not modified.
// It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(len(s)-1) * q
	lo := math.Floor(h)
	i := int(lo)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is the number of samples of n that rank strictly above the
// q-quantile — the count a tail percentile rests on. A p99 needs n ≥ 1000
// for ten samples beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(float64(n-1)*q))
}

// pairedRatio is the median over i of num[i]/den[i]: both samples of a
// pair come from the same rep, so host drift slower than one rep cancels.
func pairedRatio(num, den []float64) (float64, error) {
	if len(num) != len(den) {
		return 0, fmt.Errorf("paired ratio over %d and %d samples", len(num), len(den))
	}
	r := make([]float64, 0, len(num))
	for i := range num {
		if den[i] <= 0 {
			return 0, fmt.Errorf("paired ratio: sample %d has denominator %v", i, den[i])
		}
		r = append(r, num[i]/den[i])
	}
	return median(r), nil
}

// setupSeconds gives a set-up time in the reference host's seconds: the
// median wall time of the set-ups over that of a yardstick timed just
// before each, times the yardstick's wall time on the reference host.
// Both medians come from the same run, so host drift slower than a run
// cancels. Work added to the set-up raises it; a host that runs
// everything slower leaves it alone.
func setupSeconds(setup, yardstick []float64, yardstickRef float64) (float64, error) {
	if len(setup) == 0 || len(setup) != len(yardstick) {
		return 0, fmt.Errorf("set-up time over %d set-ups and %d yardsticks", len(setup), len(yardstick))
	}
	y := median(yardstick)
	if y <= 0 {
		return 0, fmt.Errorf("set-up time: yardstick median %v", y)
	}
	return median(setup) / y * yardstickRef, nil
}
