package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a concurrency-safe list of measurements in one unit.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (NaN when v is empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// supported reports whether n samples leave at least ten beyond the
// q-quantile, the rule for reporting a percentile at all.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ratio is a/b, or 0 when b is 0 (nothing to divide: the workload did
// not exercise the operation).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orZero maps NaN (no samples) to 0 for the machine-readable metrics.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
