package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is one timed op (or one serve-mixed burst of ops): its wall
// time, the process CPU (user+sys) and heap bytes allocated while it
// ran, how many ops it covers and how many trace entries they priced.
type sample struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	ops     int
	entries int64
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// measure runs f as one timed op. Garbage from earlier ops is
// collected first, and the GC and the counter reads stay outside the
// timed region.
func measure(f func() error) (sample, error) {
	runtime.GC()
	a0 := totalAlloc()
	c0 := cpuTime()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	c1 := cpuTime()
	a1 := totalAlloc()
	return sample{wall: wall, cpu: c1 - c0, alloc: a1 - a0, ops: 1}, err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// endToEndMetrics reduces a run's samples to the end-to-end metrics:
// medians over samples, so a neighbour holding a core for part of the
// run moves them little. lat are the per-op latencies behind op_p50_ms.
func endToEndMetrics(setup []time.Duration, samples []sample, lat []time.Duration) map[string]float64 {
	n := len(samples)
	meps := make([]float64, n)
	cpu := make([]float64, n)
	alloc := make([]float64, n)
	for i, s := range samples {
		meps[i] = float64(s.entries) / s.wall.Seconds() / 1e6
		cpu[i] = s.cpu.Seconds() * 1e3 / float64(s.ops)
		alloc[i] = float64(s.alloc) / (1 << 20) / float64(s.ops)
	}
	return map[string]float64{
		"setup_s":          durQuantile(setup, 0.5).Seconds(),
		"meps":             median(meps),
		"op_p50_ms":        durQuantile(lat, 0.5).Seconds() * 1e3,
		"cpu_ms_per_op":    median(cpu),
		"alloc_mib_per_op": median(alloc),
	}
}
