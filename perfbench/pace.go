package main

import "time"

// clock is the time source of the open-loop pacer, in nanoseconds since an
// arbitrary origin. Tests substitute a virtual clock.
type clock interface {
	now() time.Duration
	// waitUntil returns once the clock reads t or later, with that reading.
	waitUntil(t time.Duration) time.Duration
}

// wallClock reads the monotonic clock. waitUntil busy-waits: Go timers
// wake no sooner than about a millisecond when the process is otherwise
// idle, far coarser than the inter-send gaps, and a runtime.Gosched on
// every turn measured far worse on a 2-vCPU VM (14% of no-op sends more
// than an interval late, against 1.3% without). A waiting sender has
// nothing in flight, so the processor it holds is not one a request it
// sent is waiting for; the waits are shorter than the runtime's 10ms
// preemption slice.
type wallClock struct{ base time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.base) }

func (c wallClock) waitUntil(t time.Duration) time.Duration {
	for {
		if now := time.Since(c.base); now >= t {
			return now
		}
	}
}

// paceStats accumulates one open-loop sender's measurements.
type paceStats struct {
	lat   hist   // completion minus due time
	late  hist   // send minus due time
	slips uint64 // sends later than one inter-send interval
	ok    uint64
	fail  uint64
}

func (p *paceStats) merge(o *paceStats) {
	p.lat.merge(&o.lat)
	p.late.merge(&o.late)
	p.slips += o.slips
	p.ok += o.ok
	p.fail += o.fail
}

// openLoop sends one request every interval, the first at from+offset,
// until the next due time reaches to. Each request is timed from its due
// time, not from when it was sent, so a slow response delays the sends
// behind it and that wait counts against their latency (no coordinated
// omission). do reports whether the request succeeded; a failed request
// ends the loop.
func openLoop(c clock, from, to, offset, interval time.Duration, ps *paceStats, do func() bool) {
	for i := time.Duration(0); ; i++ {
		due := from + offset + i*interval
		if due >= to {
			return
		}
		sent := c.waitUntil(due)
		ok := do()
		done := c.now()
		if !ok {
			ps.fail++
			return
		}
		ps.ok++
		ps.lat.addDur(done - due)
		ps.late.addDur(sent - due)
		if sent-due > interval {
			ps.slips++
		}
	}
}
