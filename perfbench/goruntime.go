package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
)

// Go runtime counters read around a timed window.
var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     []uint64
	sched      []uint64
	pauseB     []float64
	schedB     []float64
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r rtSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		r.pauses, r.pauseB = append([]uint64(nil), h.Counts...), h.Buckets
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[3].Value.Float64Histogram()
		r.sched, r.schedB = append([]uint64(nil), h.Counts...), h.Buckets
	}
	return r
}

// rtAcc accumulates what the runtime did over one or more windows, each
// bracketed by two snapshots.
type rtAcc struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     []uint64
	sched      []uint64
	pauseB     []float64
	schedB     []float64
}

func (w *rtAcc) add(a, b rtSnap) {
	w.allocBytes += b.allocBytes - a.allocBytes
	w.gcCycles += b.gcCycles - a.gcCycles
	w.pauses, w.pauseB = addCounts(w.pauses, a.pauses, b.pauses), b.pauseB
	w.sched, w.schedB = addCounts(w.sched, a.sched, b.sched), b.schedB
}

func addCounts(acc, a, b []uint64) []uint64 {
	if len(a) != len(b) {
		return acc
	}
	if len(acc) != len(b) {
		acc = make([]uint64, len(b))
	}
	for i := range b {
		acc[i] += b[i] - a[i]
	}
	return acc
}

// countsQuantile is the nearest-rank q-quantile of a runtime histogram's
// counts, reported as the upper edge of its bucket (the lower edge for the
// open-ended last bucket). 0 if it holds no samples.
func countsQuantile(counts []uint64, bounds []float64, q float64) float64 {
	if len(bounds) != len(counts)+1 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if hi := bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-2]
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// releaseMemory frees a torn-down set-up's memory before the next is
// built, so repeated set-ups do not stack in the resident high-water mark.
// The pages stay with the Go heap: handing them back to the OS made every
// set-up fault its 64 MiB STM heap in afresh, whose cost on a VM varied by
// a third between runs.
func releaseMemory() { runtime.GC() }
