// Package server implements stmd: a TCP key-value service backed by the
// privatization-safe STM through the internal/tds semantic containers.
//
// Architecture: every connection gets a goroutine that reads frames through
// a buffered reader into one reusable payload buffer, executes each request
// itself and answers with a single Write. Transactions need an STM thread (a
// registry slot bounded by Config.MaxThreads), so threads are a fixed pool of
// tokens: the connection goroutine borrows one for the length of one request
// and hands it back, and thousands of connections multiplex onto a handful
// of transactional contexts. The pool is filled with stm.STM.NewThread and
// emptied by Shutdown, which Thread.Closes every thread — the lifecycle path
// that returns registry slots and flushes per-thread reclaim fronts.
//
// Per-tenant quotas (read/write-set caps, transaction deadlines) are
// enforced cooperatively inside transaction bodies via Tx.Cancel: a tenant
// over budget gets a clean quota status on the wire and the connection stays
// usable. Contention pathologies are bounded by the engine's MaxAttempts
// escalation to the serialized-irrevocable fallback.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	stm "privstm"
	"privstm/internal/reclaim"
	"privstm/internal/tds"
)

// Quota-abort sentinels: Tx.Cancel(err) makes Atomic return err without
// retrying, which execute maps onto a wire status.
var (
	ErrReadQuota  = errors.New("server: read-set quota exceeded")
	ErrWriteQuota = errors.New("server: write-set quota exceeded")
)

// maxOpKeys bounds the keys/pairs of one multi-key request: past this the
// request is malformed, not a big transaction.
const maxOpKeys = 4096

// Server is one stmd instance. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg config
	s   *stm.STM
	m   *tds.Map
	q   *tds.Queue

	// threads holds the idle STM threads. A receive borrows one, which
	// gives the exclusive use stm.Thread requires; every borrow ends with a
	// send.
	threads chan *stm.Thread

	connWg   sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	nconns   atomic.Int64
	draining atomic.Bool

	lnMu sync.Mutex
	ln   net.Listener

	tenantMu sync.Mutex
	tenants  map[string]*tenant

	committed      atomic.Uint64
	cancelled      atomic.Uint64
	quotaAborts    atomic.Uint64
	deadlineAborts atomic.Uint64
	privatizeOps   atomic.Uint64
	rejectedConns  atomic.Uint64
}

type tenant struct {
	name        string
	quota       Quota
	quotaAborts atomic.Uint64
}

// New assembles a server and fills its thread pool (network listening
// starts with Serve). The STM instance sizes MaxThreads to exactly the
// pool size: the pool, not the connection count, is the transactional
// footprint.
func New(opts ...Option) (*Server, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	scfg := cfg.stmConfig
	scfg.Algorithm = cfg.algorithm
	scfg.MaxThreads = cfg.workers
	if !cfg.hasSTMConf {
		// Default heap sized for a service: 1<<22 words ≈ 32 MiB.
		scfg.HeapWords = 1 << 22
	}
	s, err := stm.New(scfg)
	if err != nil {
		return nil, err
	}
	m, err := tds.NewMap(s, cfg.buckets, cfg.stripes)
	if err != nil {
		return nil, err
	}
	q, err := tds.NewQueue(s)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:     cfg,
		s:       s,
		m:       m,
		q:       q,
		threads: make(chan *stm.Thread, cfg.workers),
		conns:   make(map[net.Conn]struct{}),
		tenants: make(map[string]*tenant),
	}
	for i := 0; i < cfg.workers; i++ {
		th, err := s.NewThread()
		if err != nil {
			return nil, fmt.Errorf("server: thread %d: %w", i, err)
		}
		srv.threads <- th
	}
	return srv, nil
}

// Algorithm reports the engine serving traffic.
func (srv *Server) Algorithm() stm.Algorithm { return srv.cfg.algorithm }

// Workers reports the thread-pool size (== the STM thread count).
func (srv *Server) Workers() int { return srv.cfg.workers }

// ReclaimStats exposes the underlying reclaimer's counters; after Shutdown
// a healthy server reports zero quarantined extents.
func (srv *Server) ReclaimStats() reclaim.Stats { return srv.s.ReclaimStats() }

// ListenAndServe listens on addr and serves until Shutdown.
func (srv *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. Always returns
// a non-nil error; after Shutdown it returns nil-wrapped ErrServerClosed
// semantics (a plain nil).
func (srv *Server) Serve(ln net.Listener) error {
	srv.lnMu.Lock()
	if srv.draining.Load() {
		srv.lnMu.Unlock()
		ln.Close()
		return errors.New("server: Serve after Shutdown")
	}
	srv.ln = ln
	srv.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if srv.draining.Load() {
				return nil
			}
			return err
		}
		reject := srv.draining.Load()
		if !reject && srv.nconns.Add(1) > int64(srv.cfg.maxConns) {
			srv.nconns.Add(-1)
			reject = true
		}
		if reject {
			srv.rejectedConns.Add(1)
			_ = writeResponse(conn, make([]byte, respHdr), StatusDraining)
			conn.Close()
			continue
		}
		srv.connMu.Lock()
		srv.conns[conn] = struct{}{}
		srv.connMu.Unlock()
		srv.connWg.Add(1)
		go srv.handleConn(conn)
	}
}

// Addr returns the bound listener address ("" before Serve).
func (srv *Server) Addr() string {
	srv.lnMu.Lock()
	defer srv.lnMu.Unlock()
	if srv.ln == nil {
		return ""
	}
	return srv.ln.Addr().String()
}

func (srv *Server) tenantFor(name string) *tenant {
	srv.tenantMu.Lock()
	defer srv.tenantMu.Unlock()
	if t, ok := srv.tenants[name]; ok {
		return t
	}
	t := &tenant{name: name, quota: srv.cfg.quotaFor(name)}
	srv.tenants[name] = t
	return t
}

// keepBuf caps the per-connection buffers kept between requests: a rare
// large frame is served, then its buffer is dropped rather than pinned for
// the connection's lifetime.
const keepBuf = 64 << 10

func (srv *Server) handleConn(conn net.Conn) {
	defer func() {
		srv.connMu.Lock()
		delete(srv.conns, conn)
		srv.connMu.Unlock()
		srv.nconns.Add(-1)
		conn.Close()
		srv.connWg.Done()
	}()
	ten := srv.tenantFor("") // until HELLO names one
	br := bufio.NewReader(conn)
	var payload, out []byte
	for {
		var err error
		if payload, err = ReadFrame(br, payload); err != nil {
			// Read errors include the deadline pokes Shutdown uses to
			// unblock idle connections — either way the conversation is
			// over.
			return
		}
		status := StatusBadRequest
		out = append(out[:0], make([]byte, respHdr)...)
		if len(payload) > 0 {
			op, body := payload[0], payload[1:]
			switch op {
			case OpHello:
				status, out = srv.hello(&ten, body, out)
			case OpStats:
				status, out = srv.statsResponse(out)
			case OpGet, OpPut, OpCAS, OpDelete, OpSnapshot, OpPush, OpPop:
				status, out = srv.execute(ten, op, body, out)
			default:
				status = StatusUnsupported
			}
		}
		if err := writeResponse(conn, out, status); err != nil {
			return
		}
		if srv.draining.Load() {
			return
		}
		if cap(payload) > keepBuf || cap(out) > keepBuf {
			payload, out = nil, nil
		}
	}
}

func (srv *Server) hello(ten **tenant, body, out []byte) (byte, []byte) {
	r := wireReader{b: body}
	name, ok := r.str()
	if !ok || !r.empty() {
		return StatusBadRequest, out
	}
	*ten = srv.tenantFor(name)
	b, err := AppendString(out, srv.cfg.algorithm.String())
	if err != nil {
		return StatusBadRequest, out
	}
	return StatusOK, b
}

// StatsSnapshot is the JSON body of a STATS response.
type StatsSnapshot struct {
	Algorithm      string            `json:"algorithm"`
	Workers        int               `json:"workers"`
	Conns          int64             `json:"conns"`
	Committed      uint64            `json:"committed_txns"`
	Cancelled      uint64            `json:"cancelled_txns"`
	QuotaAborts    uint64            `json:"quota_aborts"`
	DeadlineAborts uint64            `json:"deadline_aborts"`
	PrivatizeOps   uint64            `json:"privatize_ops"`
	RejectedConns  uint64            `json:"rejected_conns"`
	TenantQuota    map[string]uint64 `json:"tenant_quota_aborts,omitempty"`
}

// Stats snapshots the server-level counters (maintained with atomics, so
// this is safe while traffic runs — unlike raw per-thread STM counters).
func (srv *Server) Stats() StatsSnapshot {
	ss := StatsSnapshot{
		Algorithm:      srv.cfg.algorithm.String(),
		Workers:        srv.cfg.workers,
		Conns:          srv.nconns.Load(),
		Committed:      srv.committed.Load(),
		Cancelled:      srv.cancelled.Load(),
		QuotaAborts:    srv.quotaAborts.Load(),
		DeadlineAborts: srv.deadlineAborts.Load(),
		PrivatizeOps:   srv.privatizeOps.Load(),
		RejectedConns:  srv.rejectedConns.Load(),
	}
	srv.tenantMu.Lock()
	for name, t := range srv.tenants {
		if n := t.quotaAborts.Load(); n > 0 {
			if ss.TenantQuota == nil {
				ss.TenantQuota = make(map[string]uint64)
			}
			ss.TenantQuota[name] = n
		}
	}
	srv.tenantMu.Unlock()
	return ss
}

func (srv *Server) statsResponse(out []byte) (byte, []byte) {
	b, err := json.Marshal(srv.Stats())
	if err != nil {
		return StatusCancelled, out
	}
	return StatusOK, append(out, b...)
}

// enforce applies the tenant's quota inside a transaction body. Pure by
// construction: it only calls runtime accessors, so the transaction-purity
// analyzer stays clean over the server package.
func enforce(tx *stm.Tx, q Quota) {
	if q.ReadSetCap > 0 && tx.ReadSetLen() > q.ReadSetCap {
		tx.Cancel(ErrReadQuota)
	}
	if q.WriteSetCap > 0 && tx.WriteSetLen() > q.WriteSetCap {
		tx.Cancel(ErrWriteQuota)
	}
	tx.CheckDeadline()
}

func (srv *Server) finish(ten *tenant, err error) byte {
	switch {
	case err == nil:
		srv.committed.Add(1)
		return StatusOK
	case errors.Is(err, ErrReadQuota):
		ten.quotaAborts.Add(1)
		srv.quotaAborts.Add(1)
		return StatusReadQuota
	case errors.Is(err, ErrWriteQuota):
		ten.quotaAborts.Add(1)
		srv.quotaAborts.Add(1)
		return StatusWriteQuota
	case errors.Is(err, stm.ErrDeadlineExceeded):
		srv.deadlineAborts.Add(1)
		return StatusDeadline
	default:
		srv.cancelled.Add(1)
		return StatusCancelled
	}
}

// execute runs one transactional request on a thread borrowed from the pool
// and appends its response body to out. The thread goes back to the pool on
// every path, after its deadline is cleared.
func (srv *Server) execute(ten *tenant, op byte, body, out []byte) (byte, []byte) {
	th := <-srv.threads
	defer func() { srv.threads <- th }()
	q := ten.quota
	if q.TxnDeadline > 0 {
		th.SetTxnDeadline(time.Now().Add(q.TxnDeadline))
		defer th.SetTxnDeadline(time.Time{})
	}
	r := wireReader{b: body}
	base := len(out) // a retried body restarts its output here
	switch op {
	case OpGet:
		keys, ok := readKeys(&r, 1)
		if !ok {
			return StatusBadRequest, out
		}
		err := th.Atomic(func(tx *stm.Tx) {
			out = AppendU64(out[:base], uint64(len(keys)))
			for _, k := range keys {
				v, found := srv.m.Get(tx, stm.Word(k))
				var f uint64
				if found {
					f = 1
				}
				out = AppendU64(AppendU64(out, f), uint64(v))
				enforce(tx, q)
			}
		})
		return srv.finish(ten, err), out
	case OpPut:
		pairs, ok := readKeys(&r, 2)
		if !ok {
			return StatusBadRequest, out
		}
		err := th.Atomic(func(tx *stm.Tx) {
			for i := 0; i < len(pairs); i += 2 {
				srv.m.Put(tx, stm.Word(pairs[i]), stm.Word(pairs[i+1]))
				enforce(tx, q)
			}
		})
		return srv.finish(ten, err), out
	case OpCAS:
		triples, ok := readKeys(&r, 3)
		if !ok {
			return StatusBadRequest, out
		}
		var swapped uint64
		err := th.Atomic(func(tx *stm.Tx) {
			swapped = 1
			for i := 0; i < len(triples); i += 3 {
				v, found := srv.m.Get(tx, stm.Word(triples[i]))
				enforce(tx, q)
				if !found || v != stm.Word(triples[i+1]) {
					swapped = 0
					return
				}
			}
			for i := 0; i < len(triples); i += 3 {
				srv.m.Put(tx, stm.Word(triples[i]), stm.Word(triples[i+2]))
				enforce(tx, q)
			}
		})
		return srv.finish(ten, err), AppendU64(out, swapped)
	case OpDelete:
		keys, ok := readKeys(&r, 1)
		if !ok {
			return StatusBadRequest, out
		}
		err := th.Atomic(func(tx *stm.Tx) {
			out = AppendU64(out[:base], uint64(len(keys)))
			for _, k := range keys {
				var e uint64
				if srv.m.Delete(tx, stm.Word(k)) {
					e = 1
				}
				out = AppendU64(out, e)
				enforce(tx, q)
			}
		})
		return srv.finish(ten, err), out
	case OpSnapshot:
		b, ok := r.u64()
		if !ok || !r.empty() {
			return StatusBadRequest, out
		}
		pl, err := srv.m.PrivateSnapshot(th, int(b%uint64(srv.m.Buckets())))
		if err != nil {
			if errors.Is(err, tds.ErrNotPrivatizationSafe) {
				return StatusUnsupported, out
			}
			return srv.finish(ten, err), out
		}
		// The privatizing transaction committed and weak readers are
		// quiesced: walk the detached chain uninstrumented, then retire
		// the nodes through the epoch reclaimer.
		out = AppendU64(out, uint64(pl.Count))
		pl.EachKV(func(k, v stm.Word) bool {
			out = AppendU64(AppendU64(out, uint64(k)), uint64(v))
			return true
		})
		pl.Retire(th)
		srv.privatizeOps.Add(1)
		srv.committed.Add(1)
		return StatusOK, out
	case OpPush:
		vals, ok := readKeys(&r, 1)
		if !ok {
			return StatusBadRequest, out
		}
		err := th.Atomic(func(tx *stm.Tx) {
			for _, v := range vals {
				srv.q.Push(tx, stm.Word(v))
				enforce(tx, q)
			}
		})
		return srv.finish(ten, err), out
	case OpPop:
		n, ok := r.u64()
		if !ok || !r.empty() || n == 0 || n > maxOpKeys {
			return StatusBadRequest, out
		}
		var popped []uint64
		err := th.Atomic(func(tx *stm.Tx) {
			popped = popped[:0]
			for i := uint64(0); i < n; i++ {
				v, found := srv.q.Pop(tx)
				if !found {
					break
				}
				popped = append(popped, uint64(v))
				enforce(tx, q)
			}
		})
		out = AppendU64(out, uint64(len(popped)))
		for _, v := range popped {
			out = AppendU64(out, v)
		}
		return srv.finish(ten, err), out
	}
	return StatusUnsupported, out
}

// readKeys parses "count, count×group u64s" with the count bounded by
// maxOpKeys and required to consume the body exactly. The length check
// comes before the allocation, so a count the body does not back costs
// nothing.
func readKeys(r *wireReader, group int) ([]uint64, bool) {
	n, ok := r.u64()
	if !ok || n > maxOpKeys || len(r.b) != 8*int(n)*group {
		return nil, false
	}
	vals := make([]uint64, int(n)*group)
	for i := range vals {
		vals[i], _ = r.u64()
	}
	return vals, true
}

// Shutdown drains the server: stop accepting, unblock idle connections and
// let in-flight requests finish, retire the thread pool (every thread is
// Close()d, flushing reclaim fronts and returning registry slots), then
// drain the epoch reclaimer. On a clean drain the reclaimer reports
// zero quarantined extents. ctx bounds the wait; on expiry remaining
// connections are closed forcibly and Shutdown reports the first error.
func (srv *Server) Shutdown(ctx context.Context) error {
	if srv.draining.Swap(true) {
		return errors.New("server: Shutdown twice")
	}
	srv.lnMu.Lock()
	if srv.ln != nil {
		srv.ln.Close()
	}
	srv.lnMu.Unlock()

	// Poke blocked readers; handlers notice draining after their current
	// request and exit.
	srv.pokeConns()
	done := make(chan struct{})
	go func() { srv.connWg.Wait(); close(done) }()
	var errs []error
	select {
	case <-done:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("server: drain: %w", ctx.Err()))
		srv.connMu.Lock()
		for c := range srv.conns {
			c.Close()
		}
		srv.connMu.Unlock()
		<-done
	}

	// No connection goroutine is left, so every thread is back in the pool.
	for i := 0; i < srv.cfg.workers; i++ {
		if err := (<-srv.threads).Close(); err != nil {
			errs = append(errs, fmt.Errorf("server: close thread: %w", err))
		}
	}

	// All threads are closed; every retired extent is published. The final
	// drain must clear the quarantine completely.
	srv.s.DrainReclaim()
	if rs := srv.s.ReclaimStats(); rs.Limbo != 0 {
		errs = append(errs, fmt.Errorf("server: %d extents still quarantined after drain", rs.Limbo))
	}
	return errors.Join(errs...)
}

// pokeConns interrupts blocked ReadFrame calls so handlers observe the
// draining flag.
func (srv *Server) pokeConns() {
	srv.connMu.Lock()
	defer srv.connMu.Unlock()
	for c := range srv.conns {
		_ = c.SetReadDeadline(time.Now())
	}
}
