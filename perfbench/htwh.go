package main

import (
	"time"

	stm "privstm"
	"privstm/internal/bench"
	"privstm/internal/rng"
	"privstm/internal/stats"
)

// htSetupReps is how many times the hashtable set-up is built per run. It
// is cheap, so more repetitions keep its median steady.
const htSetupReps = 7

// htEnv is the paper's hashtable (64 buckets, 256 keys) with one OpCtx per
// client, unlinked nodes retired through the epoch reclaimer.
type htEnv struct {
	s    *stm.STM
	inst bench.Instance
	ctx  [clients]*bench.OpCtx
}

func setupHT(cfg config) (*htEnv, error) {
	spec := bench.Hashtable(64, 256)
	s, err := stm.New(stm.Config{
		Algorithm:  stm.PVRStore,
		HeapWords:  spec.HeapWords,
		OrecCount:  spec.OrecCount,
		MaxThreads: clients,
	})
	if err != nil {
		return nil, err
	}
	inst, err := spec.Build(s, rng.New(cfg.seed))
	if err != nil {
		return nil, err
	}
	e := &htEnv{s: s, inst: inst}
	for g := range e.ctx {
		th, err := s.NewThread()
		if err != nil {
			return nil, err
		}
		e.ctx[g] = &bench.OpCtx{
			Th:     th,
			RNG:    rng.New(cfg.seed*0x9e3779b97f4a7c15 + uint64(g) + 1),
			S:      s,
			Policy: bench.FreeReclaim,
		}
	}
	warm(cfg.sz.htWarm, e.op)
	return e, nil
}

// op runs one insert, delete or lookup (40/40/20) as one transaction.
func (e *htEnv) op(g int, tr *tracer) bool {
	ctx := e.ctx[g]
	var before stats.Counters
	if tr != nil {
		before = *ctx.Th.Stats()
	}
	tr.begin(spanEngine)
	e.inst.Op(ctx, bench.WriteHeavy)
	tr.classify(&before, ctx.Th.Stats(), tr.end())
	return true
}

// close checks the structure, releases the threads and drains the
// reclaimer, returning the drain time.
func (e *htEnv) close(chk *checker) time.Duration {
	if err := e.inst.Check(e.s); err != nil {
		chk.failf("ht-wh: %v", err)
	}
	for _, c := range e.ctx {
		if err := c.Th.Close(); err != nil {
			chk.failf("thread close: %v", err)
		}
	}
	return drainCheck(e.s, chk)
}

func (e *htEnv) threads() []*stm.Thread { return []*stm.Thread{e.ctx[0].Th, e.ctx[1].Th} }

func runHTWH(cfg config) (*result, error) {
	if cfg.trace {
		return traceHTWH(cfg)
	}
	res := newResult(endToEnd)
	env, setupS, err := timeSetups(htSetupReps,
		func() (*htEnv, error) { return setupHT(cfg) },
		func(e *htEnv) { e.close(&res.chk) })
	if err != nil {
		return nil, err
	}
	closed, open := endToEndPhases(cfg.window, sampleEvery, htRate, env.op)
	env.close(&res.chk)
	res.setEndToEnd(closed, open, setupS)
	return res, nil
}

func traceHTWH(cfg config) (*result, error) {
	res := newResult(perLayer)
	env, err := setupHT(cfg)
	if err != nil {
		return nil, err
	}
	t := runInprocTrace(cfg.window, htRate, env.s, env.threads(), env.op)
	drain := env.close(&res.chk)
	res.zeroLayer("server.", "tds.")
	t.report(res, drain)
	return res, writeTrace(cfg, t.tr)
}
