package harness

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"
)

// Median returns the median of xs and the sample count it rests on; the
// median of no samples is 0.
func Median(xs []float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2], n
	}
	return (s[n/2-1] + s[n/2]) / 2, n
}

// Fastest returns, for each deployment with at least one sample, its
// fastest operation. The host adds time to an operation and never takes
// any away: on the shared machine the benchmark was built on, the same
// operation took up to 1.5 times its fastest time in phases lasting
// seconds to minutes, so the fastest of a few repeats spread across a run
// is the steadiest figure one run can give.
func Fastest(byDep [][]float64) []float64 {
	var out []float64
	for _, ws := range byDep {
		if len(ws) > 0 {
			out = append(out, slices.Min(ws))
		}
	}
	return out
}

// Mean returns the mean of xs; the mean of no samples is 0.
func Mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Runtime metric names the harness reads.
const (
	allocsMetric   = "/gc/heap/allocs:objects"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
)

// runtimeCounters reads the cumulative allocation and GC counters.
func runtimeCounters() (allocs, gcs uint64) {
	s := []metrics.Sample{{Name: allocsMetric}, {Name: gcCyclesMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// probeDelay is when probeGoroutines looks, well after an operation has
// started its node goroutines and well before any operation ends.
const probeDelay = 50 * time.Millisecond

// probeGoroutines counts goroutines once, probeDelay into an operation, and
// returns a function that reports the count (0 if the operation ended
// first). It arms one timer that fires once: a timer kept armed through an
// operation makes the scheduler read the clock at every switch, which
// slowed goroutine-mode operations by ~10% on one processor.
func probeGoroutines() func() int {
	var n atomic.Int64
	t := time.AfterFunc(probeDelay, func() { n.Store(int64(runtime.NumGoroutine())) })
	return func() int {
		t.Stop()
		return int(n.Load())
	}
}
