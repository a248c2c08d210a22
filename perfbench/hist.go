package main

import (
	"math/bits"
	"time"
)

// histSub is the number of linear sub-buckets per power of two, which
// bounds the relative error of any quantile by 1/histSub ≈ 1.6%, well
// inside the run-to-run spread of every metric.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

// hist is a log-linear histogram of non-negative nanosecond values. It is
// owned by one goroutine; merge combines per-goroutine histograms after
// they join, so recording costs no atomics.
type hist struct {
	counts [(64 - histSubBits + 1) * histSub]uint64
	n      uint64
	sum    float64
	max    int64
}

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // ≥ histSubBits
	sub := (v >> uint(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + int(sub)
}

// histSpan returns the lowest value of bucket b and the bucket's width (1
// below histSub, where buckets are exact).
func histSpan(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	exp := b/histSub + histSubBits - 1
	sub := uint64(b % histSub)
	w := uint64(1) << uint(exp-histSubBits)
	return float64(uint64(1)<<uint(exp) | sub*w), float64(w)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
	h.sum += float64(ns)
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) addDur(d time.Duration) { h.add(int64(d)) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the value
// of the ceil(q*n)-th smallest sample, placed within its bucket by
// interpolating on the rank. It is 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for b, c := range h.counts {
		if seen+c >= rank {
			lo, width := histSpan(b)
			if width == 1 {
				return lo
			}
			return lo + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return float64(h.max)
}

// mean returns the exact mean in nanoseconds (0 when empty).
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
