package main

import (
	"fmt"
	"sync"
	"time"
)

// clients is the number of load-generating goroutines (and connections on
// kv-tcp), matched to a 2-vCPU host.
const clients = 2

// opFunc runs client g's next operation and reports whether it succeeded.
// tr is non-nil when this operation is traced.
type opFunc func(g int, tr *tracer) bool

type loopOpts struct {
	sampleEvery int         // time 1 in sampleEvery operations
	traceEvery  int         // trace 1 in traceEvery operations (traced windows)
	tracers     []*tracer   // per client; nil for an untraced window
	hook        func(g int) // called every 4096 operations, if set
}

type closedStats struct {
	ok, fail uint64
	lat      hist
	elapsed  time.Duration
}

// closedLoop runs every client in a closed loop (next operation after the
// previous one returns) for window after a common start, and returns the
// operation counts and the sampled latencies. A client stops at its first
// sampled operation completing past the deadline, or at a failure.
func closedLoop(window time.Duration, o loopOpts, op opFunc) closedStats {
	per := make([]closedStats, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	var t0 time.Time
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var tr *tracer
			if o.tracers != nil {
				tr = o.tracers[g]
			}
			p := &per[g]
			<-start
			deadline := t0.Add(window)
			for i := uint64(0); ; i++ {
				var t *tracer
				if tr != nil && i%uint64(o.traceEvery) == 0 {
					t = tr
				}
				if o.hook != nil && i%4096 == 0 {
					o.hook(g)
				}
				if i%uint64(o.sampleEvery) != 0 {
					if !p.count(op(g, t)) {
						return
					}
					continue
				}
				a := time.Now()
				ok := op(g, t)
				b := time.Now()
				p.lat.addDur(b.Sub(a))
				if !p.count(ok) || !b.Before(deadline) {
					return
				}
			}
		}(g)
	}
	t0 = time.Now()
	close(start)
	wg.Wait()
	var st closedStats
	st.elapsed = time.Since(t0)
	for i := range per {
		st.ok += per[i].ok
		st.fail += per[i].fail
		st.lat.merge(&per[i].lat)
	}
	return st
}

func (p *closedStats) count(ok bool) bool {
	if ok {
		p.ok++
	} else {
		p.fail++
	}
	return ok
}

func (c *closedStats) throughput() float64 { return float64(c.ok) / c.elapsed.Seconds() }

// openLoopRun drives every client open-loop for window at a combined
// offered rate, the clients' send times interleaved evenly.
func openLoopRun(window time.Duration, rate float64, op func(g int) bool) paceStats {
	interval := time.Duration(float64(time.Second) * clients / rate)
	per := make([]paceStats, clients)
	var wg sync.WaitGroup
	c := wallClock{base: time.Now()}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			offset := time.Duration(g) * interval / clients
			openLoop(c, 0, window, offset, interval, &per[g], func() bool { return op(g) })
		}(g)
	}
	wg.Wait()
	var ps paceStats
	for i := range per {
		ps.merge(&per[i])
	}
	return ps
}

// warm runs n operations on every client concurrently, untimed, and
// returns the number that failed.
func warm(n int, op opFunc) uint64 {
	fails := make([]uint64, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if !op(g, nil) {
					fails[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	return fails[0] + fails[1]
}

// closedAcc pools the closed-loop chunks of a run.
type closedAcc struct {
	ok, fail uint64
	lat      hist
	chunks   chunkStats
}

func (a *closedAcc) add(st closedStats) {
	a.ok += st.ok
	a.fail += st.fail
	a.lat.merge(&st.lat)
	a.chunks.add(st.throughput(), &st.lat)
}

// throughput is the median of the chunks' throughputs.
func (a *closedAcc) throughput() float64 { return median(a.chunks.thr) }

// openAcc pools the open-loop chunks of a run.
type openAcc struct {
	paceStats
	chunks chunkStats
}

func (a *openAcc) add(ps *paceStats) {
	a.merge(ps)
	a.chunks.add(0, &ps.lat)
}

// chunkStats keeps per-chunk figures. A run reports the median over its
// chunks, so a second in which the host stalled the guest moves a figure
// by one rank instead of shifting a pooled quantile.
type chunkStats struct{ thr, p50, p99 []float64 }

func (c *chunkStats) add(thr float64, lat *hist) {
	c.thr = append(c.thr, thr)
	c.p50 = append(c.p50, lat.quantile(0.50))
	c.p99 = append(c.p99, lat.quantile(0.99))
}

// chunk is the target length of one phase's turn in interleave.
const chunk = time.Second

// interleave runs the phases in turn, round after round, for window in
// all. Each turn lasts about a chunk, so a drift in the host's speed
// during the run reaches every phase alike.
func interleave(window time.Duration, phases ...func(d time.Duration)) {
	rounds := max(1, int((window+chunk/2)/(chunk*time.Duration(len(phases)))))
	d := window / time.Duration(rounds*len(phases))
	for r := 0; r < rounds; r++ {
		for _, p := range phases {
			p(d)
		}
	}
}

// endToEndPhases runs the untraced measurement: closed-loop and open-loop
// chunks interleaved over window.
func endToEndPhases(window time.Duration, sample int, rate float64, op opFunc) (closedAcc, openAcc) {
	var closed closedAcc
	var open openAcc
	interleave(window,
		func(d time.Duration) { closed.add(closedLoop(d, loopOpts{sampleEvery: sample}, op)) },
		func(d time.Duration) {
			ps := openLoopRun(d, rate, func(g int) bool { return op(g, nil) })
			open.add(&ps)
		})
	return closed, open
}

// setEndToEnd reports the untraced run's metrics and operation counts.
func (r *result) setEndToEnd(closed closedAcc, open openAcc, setupS float64) {
	r.set("throughput_ops_s", closed.throughput())
	r.set("latency_p50_us", us(median(closed.chunks.p50)))
	r.set("latency_p99_us", us(median(closed.chunks.p99)))
	r.set("fixed_rate_p50_us", us(median(open.chunks.p50)))
	r.set("setup_s", setupS)
	r.set("peak_rss_mib", peakRSSMiB())
	r.note = fmt.Sprintf("closed loop: %d ok in %d chunks; open loop: %d ok, pooled p99 %.1fus p999 %.1fus max %.1fus, late p50 %.2fus p99 %.1fus, %d slips",
		closed.ok, len(closed.chunks.thr), open.ok, us(open.lat.quantile(0.99)), us(open.lat.quantile(0.999)), us(float64(open.lat.max)),
		us(open.late.quantile(0.5)), us(open.late.quantile(0.99)), open.slips)
	r.attempted = closed.ok + closed.fail + open.ok + open.fail
	r.failed = closed.fail + open.fail
}
