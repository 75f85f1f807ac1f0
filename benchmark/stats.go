package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method). With fewer than two values every quartile is
// the single value, or 0 for none.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// trimmedMean is the mean of xs without its lowest and its highest value,
// or of all of xs when there are fewer than three.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// eventsPerSec is a run's event rate from its own wall time, with the
// arithmetic Result.Perf.EventsPerSec uses.
func eventsPerSec(wallNs int64, events uint64) float64 {
	if wallNs <= 0 {
		return 0
	}
	return float64(events) / (float64(wallNs) / 1e9)
}

// nsPer divides a run's wall time by a count of work items (events,
// delivered packets).
func nsPer(wallNs int64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(wallNs) / float64(n)
}

// goAlloc is a snapshot of the Go runtime's cumulative allocation counters.
type goAlloc struct {
	bytes, objects, gcCycles uint64
}

var goAllocNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readGoAlloc() goAlloc {
	s := make([]metrics.Sample, len(goAllocNames))
	for i, n := range goAllocNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goAlloc{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a goAlloc) since(b goAlloc) goAlloc {
	return goAlloc{a.bytes - b.bytes, a.objects - b.objects, a.gcCycles - b.gcCycles}
}

func (a goAlloc) add(b goAlloc) goAlloc {
	return goAlloc{a.bytes + b.bytes, a.objects + b.objects, a.gcCycles + b.gcCycles}
}

// maxRSSMiB is the peak resident set of this process so far.
func maxRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// referenceSeconds times a fixed memory-bound loop, which measures the
// machine, not the program: random increments over a fresh buffer far larger
// than the caches, the access pattern that dominates the simulator. On a
// host whose other tenants slow memory-bound code by tens of percent for
// minutes at a time, its time and the simulator's rise and fall together (a
// correlation of 0.7 to 0.9 over ten runs per workload on a 2-vCPU host),
// so dividing by it takes out most of the machine's drift. It runs in a
// process of its own, so that its buffer does not count in any pass's peak
// memory: on Linux a child's peak resident memory starts from its parent's.
func referenceSeconds() float64 {
	buf := make([]uint64, 8<<20) // 64 MiB
	t0 := time.Now()
	idx := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		idx = idx*6364136223846793005 + 1
		buf[(idx>>20)%uint64(len(buf))]++
	}
	return time.Since(t0).Seconds()
}

// referenceNominalS is about one loop's time on the machine the benchmark
// was defined on, so that normalized times read close to its host seconds.
const referenceNominalS = 0.27
