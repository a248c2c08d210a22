package main

import (
	"context"
	"fmt"
	"net"
	"time"

	stm "privstm"
	"privstm/internal/server"
)

// tcpEnv is an in-process stmd on loopback with its client connections,
// dialled, HELLO'd, pre-populated and warmed before any timed window.
type tcpEnv struct {
	srv      *server.Server
	serveErr chan error
	cl       [clients]*tcpClient
	connect  hist // dial + HELLO, probes and the client connections
	fillOK   uint64
}

type tcpClient struct {
	c   *server.Client
	gen *kvGen
	q   kvReq
	buf []uint64
	ok  uint64 // requests answered StatusOK
	// restore holds the pairs of the last SNAPSHOT; the client's next
	// request puts them back.
	restore []uint64
	chk     checker
	errs    uint64 // transport errors
}

func setupTCP(cfg config) (e *tcpEnv, err error) {
	srv, err := server.New(
		server.WithAlgorithm(stm.PVRStore),
		server.WithWorkers(clients),
		server.WithBuckets(kvBuckets, kvStripes),
		server.WithSTMConfig(stm.Config{HeapWords: cfg.sz.kvHeapWords}),
	)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // stops the worker pool; the listen error is the one to report
		return nil, err
	}
	e = &tcpEnv{srv: srv, serveErr: make(chan error, 1)}
	go func() { e.serveErr <- srv.Serve(ln) }()
	defer func() {
		if err != nil {
			var chk checker
			e.close(&chk)
		}
	}()
	addr := ln.Addr().String()
	dial := func() (*server.Client, error) {
		t0 := time.Now()
		c, alg, err := server.Dial(addr, "")
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.connect.addDur(time.Since(t0))
		if alg != stm.PVRStore.String() {
			c.Close()
			return nil, fmt.Errorf("server runs %q, want %v", alg, stm.PVRStore)
		}
		return c, nil
	}
	for i := 0; i < cfg.sz.probes; i++ {
		c, err := dial()
		if err != nil {
			return e, err
		}
		c.Close()
	}
	for g := range e.cl {
		c, err := dial()
		if err != nil {
			return e, err
		}
		e.cl[g] = &tcpClient{c: c, gen: newKVGen(cfg.seed, g, cfg.sz.kvKeys), buf: make([]uint64, 0, 2*kvFillBatch)}
	}
	c := e.cl[0]
	for lo := 0; lo < cfg.sz.kvKeys; lo += kvFillBatch {
		pairs := c.buf[:0]
		for k := lo; k < min(lo+kvFillBatch, cfg.sz.kvKeys); k++ {
			pairs = append(pairs, uint64(k), uint64(2*k+1))
		}
		st, err := c.c.Put(pairs)
		if err != nil || st != server.StatusOK {
			return e, fmt.Errorf("pre-populate: status %d, %v", st, err)
		}
		e.fillOK++
	}
	if n := warm(cfg.sz.kvWarm, e.op); n > 0 {
		return e, fmt.Errorf("warm-up: %d requests failed", n)
	}
	return e, nil
}

func (e *tcpEnv) op(g int, tr *tracer) bool { return e.cl[g].do(tr) }

// do sends the client's next request and checks the response.
func (c *tcpClient) do(tr *tracer) bool {
	if len(c.restore) > 0 {
		c.q = kvReq{op: opPut}
	} else {
		c.gen.next(&c.q)
	}
	tr.begin(spanServer + spanName(c.q.op))
	st, err := c.send(&c.q)
	tr.end()
	if err != nil {
		c.errs++
		c.chk.failf("kv-tcp %s: transport: %v", kvOpNames[c.q.op], err)
		return false
	}
	if st != server.StatusOK {
		c.chk.failf("kv-tcp %s: status %d", kvOpNames[c.q.op], st)
		return false
	}
	c.ok++
	return true
}

func (c *tcpClient) send(q *kvReq) (byte, error) {
	keys := append(c.buf[:0], q.keys[:q.n]...)
	switch q.op {
	case opGet:
		found, vals, st, err := c.c.Get(keys)
		if err == nil && st == server.StatusOK {
			if len(found) != len(keys) {
				c.chk.failf("kv-tcp get: %d results for %d keys", len(found), len(keys))
			}
			for i := range found {
				if found[i] && !kvValueOK(keys[i], vals[i]) {
					c.chk.failf("kv-tcp get %d = %d", keys[i], vals[i])
				}
			}
		}
		return st, err
	case opPut:
		if len(c.restore) > 0 {
			st, err := c.c.Put(c.restore)
			c.restore = c.restore[:0]
			return st, err
		}
		pairs := c.buf[:0]
		for _, k := range q.keys[:q.n] {
			pairs = append(pairs, k, 2*k+1)
		}
		return c.c.Put(pairs)
	case opCAS:
		k := q.keys[0]
		_, st, err := c.c.CAS(append(c.buf[:0], k, 2*k+1, 2*k+3))
		return st, err
	case opDelete:
		existed, st, err := c.c.Delete(keys)
		if err == nil && st == server.StatusOK && len(existed) != len(keys) {
			c.chk.failf("kv-tcp delete: %d results for %d keys", len(existed), len(keys))
		}
		return st, err
	default:
		pairs, st, err := c.c.Snapshot(q.bucket)
		if err != nil || st != server.StatusOK {
			return st, err
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			if !kvValueOK(pairs[i], pairs[i+1]) {
				c.chk.failf("kv-tcp snapshot pair (%d, %d)", pairs[i], pairs[i+1])
			}
		}
		c.restore = append(c.restore[:0], pairs...)
		return st, err
	}
}

// close checks the server's committed count against the client's OK
// count, shuts the server down and checks the drain. It returns the
// shutdown time and committed/OK.
func (e *tcpEnv) close(chk *checker) (time.Duration, float64) {
	ok := e.fillOK
	for _, c := range e.cl {
		if c == nil {
			continue
		}
		ok += c.ok
		chk.merge(&c.chk)
		c.chk = checker{}
		if c.errs > 0 {
			chk.failf("kv-tcp: %d transport errors", c.errs)
		}
		c.c.Close()
	}
	committed := e.srv.Stats().Committed
	if committed != ok {
		chk.failf("server committed %d transactions, client saw %d OK", committed, ok)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t0 := time.Now()
	err := e.srv.Shutdown(ctx)
	d := time.Since(t0)
	if err != nil {
		chk.failf("shutdown: %v", err)
	}
	if l := e.srv.ReclaimStats().Limbo; l != 0 {
		chk.failf("%d extents still quarantined after Shutdown", l)
	}
	if err := <-e.serveErr; err != nil {
		chk.failf("serve: %v", err)
	}
	return d, ratio(float64(committed), float64(ok))
}

func runKVTCP(cfg config) (*result, error) {
	if cfg.trace {
		return traceKVTCP(cfg)
	}
	res := newResult(endToEnd)
	env, setupS, err := timeSetups(kvSetupReps,
		func() (*tcpEnv, error) { return setupTCP(cfg) },
		func(e *tcpEnv) { e.close(&res.chk) })
	if err != nil {
		return nil, err
	}
	closed, open := endToEndPhases(cfg.window, 1, kvTCPRate, env.op)
	env.close(&res.chk)
	res.setEndToEnd(closed, open, setupS)
	return res, nil
}

// traceKVTCP interleaves untraced closed-loop, traced closed-loop and
// open-loop chunks over three quarters of the window, then spends the last
// quarter on an untraced kv-inproc twin whose mean transaction time splits
// kv-tcp's mean request time into STM time and service time
// (server.self_us).
func traceKVTCP(cfg config) (*result, error) {
	res := newResult(perLayer)
	env, err := setupTCP(cfg)
	if err != nil {
		return nil, err
	}
	var (
		plain, traced closedAcc
		open          openAcc
		rt            rtAcc
	)
	trs := []*tracer{newTracer(time.Now(), 0), newTracer(time.Now(), 1)}
	rt0 := readRuntime()
	interleave(cfg.window*3/4,
		func(d time.Duration) { plain.add(closedLoop(d, loopOpts{sampleEvery: 1}, env.op)) },
		func(d time.Duration) {
			traced.add(closedLoop(d, loopOpts{sampleEvery: 1, traceEvery: 1, tracers: trs}, env.op))
		},
		func(d time.Duration) {
			ps := openLoopRun(d, kvTCPRate, func(g int) bool { return env.cl[g].do(nil) })
			open.add(&ps)
		})
	rt.add(rt0, readRuntime())
	shutdown, perOK := env.close(&res.chk)
	connect := env.connect
	env = nil
	releaseMemory()

	twin, err := setupInproc(cfg)
	if err != nil {
		return nil, err
	}
	var base closedAcc
	interleave(cfg.window/4, func(d time.Duration) {
		base.add(closedLoop(d, loopOpts{sampleEvery: sampleEvery}, twin.op))
	})
	twin.close(&res.chk)

	tr := mergeTracers(trs...)
	for op := kvOp(0); op < numKVOps; op++ {
		h := &tr.dur[spanServer+spanName(op)]
		res.set("server."+kvOpNames[op]+"_p50_us", us(h.quantile(0.50)))
		res.set("server."+kvOpNames[op]+"_p99_us", us(h.quantile(0.99)))
	}
	res.set("server.p999_us", us(plain.lat.quantile(0.999)))
	res.set("server.connect_p50_us", us(connect.quantile(0.50)))
	res.set("server.connect_max_us", us(float64(connect.max)))
	res.set("server.self_us", us(plain.lat.mean()-base.lat.mean()))
	res.set("server.committed_per_ok", perOK)
	res.set("server.shutdown_ms", shutdown.Seconds()*1e3)
	res.setGen(&open)
	res.setRuntime(&rt, plain.ok+traced.ok+open.ok)
	res.zeroLayer("tds.", "engine.", "reclaim.", "heap.")
	res.setOverhead(plain.throughput(), traced.throughput())
	res.attempted = plain.ok + plain.fail + traced.ok + traced.fail + open.ok + open.fail + base.ok + base.fail
	res.failed = plain.fail + traced.fail + open.fail + base.fail
	return res, writeTrace(cfg, tr)
}
