package main

import (
	"fmt"
	"time"

	stm "privstm"
	"privstm/internal/stats"
	"privstm/internal/tds"
)

// kvSetupReps is how many times a kv set-up is built per run; setup_s is
// their median.
const kvSetupReps = 3

// In-process workloads time 1 in sampleEvery operations (a time.Now pair
// is a sizeable share of an ht-wh transaction) and, in traced windows,
// trace 1 in traceEvery.
const (
	sampleEvery = 32
	traceEvery  = 8
)

// inprocEnv is the kv store without the server: the STM and tds.Map
// shaped like stmd's, and one STM thread per client.
type inprocEnv struct {
	s  *stm.STM
	m  *tds.Map
	cl [clients]*inprocClient
}

type inprocClient struct {
	th      *stm.Thread
	m       *tds.Map
	gen     *kvGen
	q       kvReq
	found   [kvBatch]bool
	vals    [kvBatch]stm.Word
	old     stm.Word
	oldSeen bool
	pairs   []stm.Word // the last snapshot's pairs; the next transaction restores them
	chk     checker
}

func setupInproc(cfg config) (*inprocEnv, error) {
	s, err := stm.New(stm.Config{Algorithm: stm.PVRStore, HeapWords: cfg.sz.kvHeapWords, MaxThreads: clients})
	if err != nil {
		return nil, err
	}
	m, err := tds.NewMap(s, kvBuckets, kvStripes)
	if err != nil {
		return nil, err
	}
	e := &inprocEnv{s: s, m: m}
	for g := range e.cl {
		th, err := s.NewThread()
		if err != nil {
			return nil, err
		}
		e.cl[g] = &inprocClient{th: th, m: m, gen: newKVGen(cfg.seed, g, cfg.sz.kvKeys)}
	}
	th := e.cl[0].th
	for lo := 0; lo < cfg.sz.kvKeys; lo += kvFillBatch {
		hi := min(lo+kvFillBatch, cfg.sz.kvKeys)
		if err := th.Atomic(func(tx *stm.Tx) {
			for k := lo; k < hi; k++ {
				m.Put(tx, stm.Word(k), stm.Word(2*k+1))
			}
		}); err != nil {
			return nil, fmt.Errorf("pre-populate: %w", err)
		}
	}
	if n := warm(cfg.sz.kvWarm, e.op); n > 0 {
		return nil, fmt.Errorf("warm-up: %d operations failed", n)
	}
	return e, nil
}

func (e *inprocEnv) op(g int, tr *tracer) bool { return e.cl[g].do(tr) }

// do runs the client's next request: the transaction Server.execute would
// run for it, with no socket or channel in between.
func (c *inprocClient) do(tr *tracer) bool {
	tr.begin(spanKVOp)
	var ok bool
	if len(c.pairs) > 0 {
		ok = c.restore(tr)
	} else if c.gen.next(&c.q); c.q.op == opSnapshot {
		ok = c.snapshot(tr)
	} else {
		ok = c.txn(tr)
	}
	tr.end()
	return ok
}

func (c *inprocClient) txn(tr *tracer) bool {
	q := &c.q
	var before stats.Counters
	if tr != nil {
		before = *c.th.Stats()
	}
	tr.begin(spanEngine)
	d := tr.depth()
	var err error
	switch q.op {
	case opGet:
		err = c.th.Atomic(func(tx *stm.Tx) {
			tr.unwind(d)
			for i := 0; i < q.n; i++ {
				tr.begin(spanTDSGet)
				c.vals[i], c.found[i] = c.m.Get(tx, stm.Word(q.keys[i]))
				tr.end()
			}
		})
	case opPut:
		err = c.th.Atomic(func(tx *stm.Tx) {
			tr.unwind(d)
			for i := 0; i < q.n; i++ {
				tr.begin(spanTDSPut)
				c.m.Put(tx, stm.Word(q.keys[i]), stm.Word(2*q.keys[i]+1))
				tr.end()
			}
		})
	case opCAS:
		k := stm.Word(q.keys[0])
		err = c.th.Atomic(func(tx *stm.Tx) {
			tr.unwind(d)
			tr.begin(spanTDSGet)
			c.old, c.oldSeen = c.m.Get(tx, k)
			tr.end()
			if !c.oldSeen || c.old != 2*k+1 {
				return
			}
			tr.begin(spanTDSPut)
			c.m.Put(tx, k, 2*k+3)
			tr.end()
		})
	case opDelete:
		err = c.th.Atomic(func(tx *stm.Tx) {
			tr.unwind(d)
			for i := 0; i < q.n; i++ {
				tr.begin(spanTDSDel)
				c.m.Delete(tx, stm.Word(q.keys[i]))
				tr.end()
			}
		})
	}
	dur := tr.end()
	tr.classify(&before, c.th.Stats(), dur)
	if err != nil {
		c.chk.failf("kv-inproc %s: %v", kvOpNames[q.op], err)
		return false
	}
	switch q.op {
	case opGet:
		for i := 0; i < q.n; i++ {
			if c.found[i] && !kvValueOK(q.keys[i], uint64(c.vals[i])) {
				c.chk.failf("kv-inproc get %d = %d", q.keys[i], c.vals[i])
			}
		}
	case opCAS:
		if c.oldSeen && !kvValueOK(q.keys[0], uint64(c.old)) {
			c.chk.failf("kv-inproc cas %d saw %d", q.keys[0], c.old)
		}
	}
	return true
}

// snapshot privatizes a bucket, walks the detached chain uninstrumented
// and retires it, as stmd's SNAPSHOT does, keeping the pairs to restore.
func (c *inprocClient) snapshot(tr *tracer) bool {
	tr.begin(spanTDSSnap)
	pl, err := c.m.PrivateSnapshot(c.th, int(c.q.bucket%uint64(c.m.Buckets())))
	tr.end()
	if err != nil {
		c.chk.failf("kv-inproc snapshot: %v", err)
		return false
	}
	tr.begin(spanTDSWalk)
	c.pairs = c.pairs[:0]
	pl.EachKV(func(k, v stm.Word) bool {
		if !kvValueOK(uint64(k), uint64(v)) {
			c.chk.failf("kv-inproc snapshot pair (%d, %d)", k, v)
		}
		c.pairs = append(c.pairs, k, v)
		return true
	})
	tr.end()
	if len(c.pairs) != 2*pl.Count {
		c.chk.failf("kv-inproc snapshot walked %d of %d nodes", len(c.pairs)/2, pl.Count)
	}
	tr.begin(spanTDSRetir)
	pl.Retire(c.th)
	tr.end()
	return true
}

// restore puts the last snapshot's pairs back in one transaction.
func (c *inprocClient) restore(tr *tracer) bool {
	var before stats.Counters
	if tr != nil {
		before = *c.th.Stats()
	}
	tr.begin(spanEngine)
	d := tr.depth()
	err := c.th.Atomic(func(tx *stm.Tx) {
		tr.unwind(d)
		for i := 0; i < len(c.pairs); i += 2 {
			tr.begin(spanTDSPut)
			c.m.Put(tx, c.pairs[i], c.pairs[i+1])
			tr.end()
		}
	})
	tr.classify(&before, c.th.Stats(), tr.end())
	c.pairs = c.pairs[:0]
	if err != nil {
		c.chk.failf("kv-inproc snapshot restore: %v", err)
		return false
	}
	return true
}

// liveKeys counts the map's entries.
func (e *inprocEnv) liveKeys() (int, error) {
	var n int
	err := e.cl[0].th.Atomic(func(tx *stm.Tx) { n = e.m.Len(tx) })
	return n, err
}

// close releases the threads, drains the reclaimer, checks that nothing
// stays quarantined, and returns the drain time.
func (e *inprocEnv) close(chk *checker) time.Duration {
	for _, c := range e.cl {
		chk.merge(&c.chk)
		c.chk = checker{}
		if err := c.th.Close(); err != nil {
			chk.failf("thread close: %v", err)
		}
	}
	return drainCheck(e.s, chk)
}

func drainCheck(s *stm.STM, chk *checker) time.Duration {
	t0 := time.Now()
	s.DrainReclaim()
	d := time.Since(t0)
	if l := s.ReclaimStats().Limbo; l != 0 {
		chk.failf("%d extents still quarantined after DrainReclaim", l)
	}
	return d
}

func (e *inprocEnv) threads() []*stm.Thread { return []*stm.Thread{e.cl[0].th, e.cl[1].th} }

func runKVInproc(cfg config) (*result, error) {
	if cfg.trace {
		return traceKVInproc(cfg)
	}
	res := newResult(endToEnd)
	env, setupS, err := timeSetups(kvSetupReps,
		func() (*inprocEnv, error) { return setupInproc(cfg) },
		func(e *inprocEnv) { e.close(&res.chk) })
	if err != nil {
		return nil, err
	}
	closed, open := endToEndPhases(cfg.window, sampleEvery, kvInprocRate, env.op)
	env.close(&res.chk)
	res.setEndToEnd(closed, open, setupS)
	return res, nil
}

func traceKVInproc(cfg config) (*result, error) {
	res := newResult(perLayer)
	env, err := setupInproc(cfg)
	if err != nil {
		return nil, err
	}
	t := runInprocTrace(cfg.window, kvInprocRate, env.s, env.threads(), env.op)
	live, err := env.liveKeys()
	if err != nil {
		res.chk.failf("live keys: %v", err)
	}
	drain := env.close(&res.chk)

	tr, d := t.tr, t.counts
	ops := float64(t.traced.ok)
	res.zeroLayer("server.")
	t.report(res, drain)
	res.set("tds.get_ns", tr.dur[spanTDSGet].mean())
	res.set("tds.put_ns", tr.dur[spanTDSPut].mean())
	res.set("tds.delete_ns", tr.dur[spanTDSDel].mean())
	res.set("tds.snapshot_p50_us", us(tr.dur[spanTDSSnap].quantile(0.50)))
	res.set("tds.snapshot_p99_us", us(tr.dur[spanTDSSnap].quantile(0.99)))
	res.set("tds.walk_us", us(tr.dur[spanTDSWalk].mean()))
	res.set("tds.retire_us", us(tr.dur[spanTDSRetir].mean()))
	res.set("tds.weak_reads_per_op", ratio(float64(d.WeakReads), ops))
	res.set("tds.semantic_skips_per_op", ratio(float64(d.SemanticSkips), ops))
	res.set("tds.abstract_lock_conflicts_per_kop", ratio(float64(d.AbstractLockConflicts), ops/1000))
	res.set("tds.live_keys", float64(live))
	return res, writeTrace(cfg, tr)
}
