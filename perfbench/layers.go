package main

import (
	"time"

	stm "privstm"
	"privstm/internal/heap"
	"privstm/internal/reclaim"
	"privstm/internal/stats"
)

// Per-layer reporting shared by the in-process workloads.

// setEngine reports the engine metrics from a window's counter delta d and
// the traced transactions' class histograms.
func (r *result) setEngine(d stats.Counters, tr *tracer) {
	commits := float64(d.Commits)
	r.set("engine.attempts_per_commit", ratio(float64(d.Commits+d.Aborts), commits))
	r.set("engine.abort_pct", 100*ratio(float64(d.Aborts), float64(d.Commits+d.Aborts)))
	r.set("engine.writers_fenced_pct", d.PercentWritersFenced())
	r.set("engine.pv_reads_skipped_pct", d.PercentVisibleReadsSkipped())
	r.set("engine.pv_updates_per_commit", ratio(float64(d.PVUpdates), commits))
	r.set("engine.pv_cache_hit_pct", 100*ratio(float64(d.PVCacheHits), float64(d.PVReads)))
	r.set("engine.fence_spins_per_fenced", ratio(float64(d.FenceSpins), float64(d.Fenced)))
	for c := txnClass(0); c < numClasses; c++ {
		h := &tr.class[c]
		r.set("engine."+classNames[c]+"_txn_p50_us", us(h.quantile(0.50)))
		r.set("engine."+classNames[c]+"_txn_p99_us", us(h.quantile(0.99)))
	}
	r.set("engine.clock_ticks_per_commit", ratio(float64(d.ClockTicks), commits))
	r.set("engine.serialized", float64(d.Serialized))
	r.set("engine.fence_stalls", float64(d.FenceStalls))
	r.set("engine.store_races", float64(d.StoreRaces))
}

// memWindow tracks the reclaimer and heap over one or more traced windows.
type memWindow struct {
	s                 *stm.STM
	r0                reclaim.Stats
	h0                heap.Stats
	retires, collects uint64
	freed, bump       uint64
	limboPeak         uint64
}

func (m *memWindow) start() { m.r0, m.h0 = m.s.ReclaimStats(), m.s.HeapStats() }

// sample records the quarantine depth; the traced loop calls it at a low
// fixed rate (every 4096 operations of one client).
func (m *memWindow) sample() {
	if l := m.s.ReclaimStats().Limbo; l > m.limboPeak {
		m.limboPeak = l
	}
}

func (m *memWindow) stop() {
	m.sample()
	r, h := m.s.ReclaimStats(), m.s.HeapStats()
	m.retires += r.Retires - m.r0.Retires
	m.collects += r.Collects - m.r0.Collects
	m.freed += r.Freed - m.r0.Freed
	m.bump += h.BumpWords - m.h0.BumpWords
}

// setReclaim reports the reclaim and heap metrics for ops operations.
func (r *result) setReclaim(m *memWindow, ops uint64, drain time.Duration) {
	kops := float64(ops) / 1000
	r.set("reclaim.retires_per_kop", ratio(float64(m.retires), kops))
	r.set("reclaim.collects_per_kop", ratio(float64(m.collects), kops))
	r.set("reclaim.limbo_peak", float64(m.limboPeak))
	r.set("reclaim.drain_ms", drain.Seconds()*1e3)
	r.set("heap.reuse_pct", 100*ratio(float64(m.freed), float64(m.retires)))
	r.set("heap.bump_growth_words", float64(m.bump))
}

// setRuntime reports the Go runtime metrics of a window of ops operations.
func (r *result) setRuntime(w *rtAcc, ops uint64) {
	r.set("go.alloc_bytes_per_op", ratio(float64(w.allocBytes), float64(ops)))
	r.set("go.gc_cycles_per_kop", ratio(float64(w.gcCycles), float64(ops)/1000))
	r.set("go.gc_pause_p99_us", countsQuantile(w.pauses, w.pauseB, 0.99)*1e6)
	r.set("go.sched_latency_p99_us", countsQuantile(w.sched, w.schedB, 0.99)*1e6)
}

// setOverhead reports how much slower the traced window ran.
func (r *result) setOverhead(untraced, traced float64) {
	r.set("trace.overhead_pct", 100*(ratio(untraced, traced)-1))
}

// inprocTrace is the traced run of an in-process workload: untraced
// closed-loop, traced closed-loop and open-loop chunks, interleaved.
type inprocTrace struct {
	plain, traced closedAcc
	open          openAcc
	rt            rtAcc
	counts        stats.Counters // engine counter deltas over the traced chunks
	mem           memWindow
	tr            *tracer
}

func runInprocTrace(window time.Duration, rate float64, s *stm.STM, ths []*stm.Thread, op opFunc) *inprocTrace {
	t := &inprocTrace{mem: memWindow{s: s}}
	// counters sums the threads' counters and publishes their buffered
	// reclaim counts; it runs between chunks, when the clients are idle.
	counters := func() (sum stats.Counters) {
		for _, th := range ths {
			th.FlushReclaim()
			sum.Add(th.Stats())
		}
		return sum
	}
	trs := []*tracer{newTracer(time.Now(), 0), newTracer(time.Now(), 1)}
	traced := loopOpts{
		sampleEvery: sampleEvery, traceEvery: traceEvery, tracers: trs,
		hook: func(g int) {
			if g == 0 {
				t.mem.sample()
			}
		},
	}
	rt0 := readRuntime()
	interleave(window,
		func(d time.Duration) { t.plain.add(closedLoop(d, loopOpts{sampleEvery: sampleEvery}, op)) },
		func(d time.Duration) {
			before := counters()
			t.mem.start()
			t.traced.add(closedLoop(d, traced, op))
			after := counters()
			t.mem.stop()
			delta := counterDelta(&before, &after)
			t.counts.Add(&delta)
		},
		func(d time.Duration) {
			ps := openLoopRun(d, rate, func(g int) bool { return op(g, nil) })
			t.open.add(&ps)
		})
	t.rt.add(rt0, readRuntime())
	t.tr = mergeTracers(trs...)
	return t
}

// report sets the runtime, engine, reclaim and overhead metrics and the
// operation counts.
func (t *inprocTrace) report(r *result, drain time.Duration) {
	r.setRuntime(&t.rt, t.plain.ok+t.traced.ok+t.open.ok)
	r.setEngine(t.counts, t.tr)
	r.setReclaim(&t.mem, t.traced.ok, drain)
	r.setOverhead(t.plain.throughput(), t.traced.throughput())
	r.setGen(&t.open)
	r.attempted = t.plain.ok + t.plain.fail + t.traced.ok + t.traced.fail + t.open.ok + t.open.fail
	r.failed = t.plain.fail + t.traced.fail + t.open.fail
}

// setGen reports the open-loop sender's lateness and the fixed-rate tail.
func (r *result) setGen(open *openAcc) {
	r.set("gen.late_p99_us", us(open.late.quantile(0.99)))
	r.set("gen.late_pct", 100*ratio(float64(open.slips), float64(open.ok)))
	r.set("gen.fixed_rate_p99_us", us(open.lat.quantile(0.99)))
}

// counterDelta is the engine's counter activity between snapshots a and b.
func counterDelta(a, b *stats.Counters) stats.Counters {
	return stats.Counters{
		Commits:               b.Commits - a.Commits,
		Aborts:                b.Aborts - a.Aborts,
		WriterCommits:         b.WriterCommits - a.WriterCommits,
		Fenced:                b.Fenced - a.Fenced,
		FenceSpins:            b.FenceSpins - a.FenceSpins,
		PVReads:               b.PVReads - a.PVReads,
		PVUpdates:             b.PVUpdates - a.PVUpdates,
		PVSkipped:             b.PVSkipped - a.PVSkipped,
		PVCacheHits:           b.PVCacheHits - a.PVCacheHits,
		StoreRaces:            b.StoreRaces - a.StoreRaces,
		Serialized:            b.Serialized - a.Serialized,
		FenceStalls:           b.FenceStalls - a.FenceStalls,
		ClockTicks:            b.ClockTicks - a.ClockTicks,
		SemanticSkips:         b.SemanticSkips - a.SemanticSkips,
		AbstractLockConflicts: b.AbstractLockConflicts - a.AbstractLockConflicts,
		WeakReads:             b.WeakReads - a.WeakReads,
	}
}
