package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (mean of the middle two for an even count); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles cuts xs the way Python's statistics.quantiles(xs, n=4) does
// (the "exclusive" method), because that is what the driver that accepts
// or rejects a run set computes its spreads with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 when empty.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(asc)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(asc) {
		k = len(asc) - 1
	}
	return asc[k]
}

// tailPercentile picks the tail a sample of n supports: the highest of
// p50, p90, p99 and p99.9 that still has at least ten samples beyond it.
// Fewer than twenty samples support only the median.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		// +1e-9: 100·(1−0.9) must count as ten, not 9.999….
		if float64(n)*(100-p)/100+1e-9 >= 10 {
			best = p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// rssMB reads the resident set size from /proc/self/status; 0 where the
// file is missing (non-Linux), which the harness reports as an error
// because peak_rss_mb may never be 0.
func rssMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler polls rssMB until stopped and keeps the peak.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- math.Max(peak, rssMB())
				return
			case <-tick.C:
				peak = math.Max(peak, rssMB())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the highest value it saw.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}
