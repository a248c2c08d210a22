package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	stm "privstm"
)

// startServer spins up a server on a loopback listener and returns it with
// its address; a cleanup shuts it down and asserts a clean drain.
func startServer(t *testing.T, opts ...Option) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, ln, opts...), ln.Addr().String()
}

// startServerOn is startServer on a caller-supplied listener.
func startServerOn(t *testing.T, ln net.Listener, opts ...Option) *Server {
	t.Helper()
	srv, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// ctx bounds only the connection drain; a pooled thread that was
		// never handed back would block Shutdown for good.
		shut := make(chan error, 1)
		go func() { shut <- srv.Shutdown(ctx) }()
		select {
		case err := <-shut:
			if err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Errorf("Shutdown hung: a pooled thread was never returned")
			return
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		if rs := srv.ReclaimStats(); rs.Limbo != 0 {
			t.Errorf("Limbo = %d after Shutdown, want 0", rs.Limbo)
		}
	})
	return srv
}

func TestServerKVRoundTrip(t *testing.T) {
	srv, addr := startServer(t, WithWorkers(2))
	c, alg, err := Dial(addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if alg != srv.Algorithm().String() {
		t.Fatalf("HELLO algorithm %q, want %q", alg, srv.Algorithm())
	}
	if st, err := c.Put([]uint64{1, 10, 2, 20, 3, 30}); err != nil || st != StatusOK {
		t.Fatalf("Put: status %d err %v", st, err)
	}
	found, vals, st, err := c.Get([]uint64{1, 2, 4})
	if err != nil || st != StatusOK {
		t.Fatalf("Get: status %d err %v", st, err)
	}
	if !found[0] || !found[1] || found[2] || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("Get = %v %v", found, vals)
	}
	swapped, st, err := c.CAS([]uint64{1, 10, 11, 2, 20, 21})
	if err != nil || st != StatusOK || !swapped {
		t.Fatalf("CAS: swapped=%v status %d err %v", swapped, st, err)
	}
	if swapped, _, _ = c.CAS([]uint64{1, 999, 0}); swapped {
		t.Fatal("CAS with stale expectation swapped")
	}
	existed, st, err := c.Delete([]uint64{3, 4})
	if err != nil || st != StatusOK || !existed[0] || existed[1] {
		t.Fatalf("Delete: %v status %d err %v", existed, st, err)
	}
	if st, err := c.Push([]uint64{7, 8, 9}); err != nil || st != StatusOK {
		t.Fatalf("Push: status %d err %v", st, err)
	}
	popped, st, err := c.Pop(5)
	if err != nil || st != StatusOK {
		t.Fatalf("Pop: status %d err %v", st, err)
	}
	if len(popped) != 3 || popped[0] != 7 || popped[2] != 9 {
		t.Fatalf("Pop = %v, want [7 8 9]", popped)
	}
}

// TestServerSnapshotPrivatizes: SNAPSHOT must return exactly the pairs that
// lived in the bucket and remove them from the map.
func TestServerSnapshotPrivatizes(t *testing.T) {
	_, addr := startServer(t, WithWorkers(2), WithBuckets(1, 8))
	c, _, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Put([]uint64{1, 100, 2, 200, 3, 300}); err != nil || st != StatusOK {
		t.Fatalf("Put: status %d err %v", st, err)
	}
	pairs, st, err := c.Snapshot(0)
	if err != nil || st != StatusOK {
		t.Fatalf("Snapshot: status %d err %v", st, err)
	}
	got := map[uint64]uint64{}
	for i := 0; i < len(pairs); i += 2 {
		got[pairs[i]] = pairs[i+1]
	}
	if len(got) != 3 || got[1] != 100 || got[2] != 200 || got[3] != 300 {
		t.Fatalf("Snapshot pairs = %v", got)
	}
	// The single bucket was detached: the map is now empty.
	found, _, st, err := c.Get([]uint64{1, 2, 3})
	if err != nil || st != StatusOK {
		t.Fatalf("Get after snapshot: status %d err %v", st, err)
	}
	for i, f := range found {
		if f {
			t.Fatalf("key %d still present after bucket privatization", i+1)
		}
	}
}

// TestServerWriteSetQuota is the satellite acceptance test: a tenant
// exceeding WithWriteSetCap gets a clean quota-abort status and the
// connection stays usable — no wedge, no disconnect.
func TestServerWriteSetQuota(t *testing.T) {
	srv, addr := startServer(t,
		WithWorkers(2),
		WithTenantQuota("noisy", Quota{WriteSetCap: 4}),
	)
	c, _, err := Dial(addr, "noisy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A small put fits the cap.
	if st, err := c.Put([]uint64{1, 10}); err != nil || st != StatusOK {
		t.Fatalf("small Put: status %d err %v", st, err)
	}
	// Ten inserts write far more than 4 words: quota abort, connection alive.
	big := make([]uint64, 0, 20)
	for k := uint64(100); k < 110; k++ {
		big = append(big, k, k)
	}
	st, err := c.Put(big)
	if err != nil {
		t.Fatalf("big Put transport error (wedged connection?): %v", err)
	}
	if st != StatusWriteQuota {
		t.Fatalf("big Put status = %d, want StatusWriteQuota", st)
	}
	// The aborted transaction must have left no trace.
	found, _, st, err := c.Get([]uint64{100})
	if err != nil || st != StatusOK {
		t.Fatalf("Get after quota abort: status %d err %v", st, err)
	}
	if found[0] {
		t.Fatal("quota-aborted Put leaked a key")
	}
	// And the abort is attributed to the tenant in server stats.
	ss := srv.Stats()
	if ss.QuotaAborts == 0 || ss.TenantQuota["noisy"] == 0 {
		t.Fatalf("quota abort not surfaced in stats: %+v", ss)
	}
	// Unquoted tenants on the same server are unaffected.
	c2, _, err := Dial(addr, "quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st, err := c2.Put(big); err != nil || st != StatusOK {
		t.Fatalf("unquoted tenant Put: status %d err %v", st, err)
	}
}

// TestServerDeadlineQuota: an absurdly small transaction deadline trips
// CheckDeadline and maps to StatusDeadline.
func TestServerDeadlineQuota(t *testing.T) {
	_, addr := startServer(t,
		WithWorkers(2),
		WithTenantQuota("slow", Quota{TxnDeadline: time.Nanosecond}),
	)
	c, _, err := Dial(addr, "slow")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Put([]uint64{1, 1})
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if st != StatusDeadline {
		t.Fatalf("status = %d, want StatusDeadline", st)
	}
}

// TestServerManyConnsFewWorkers multiplexes far more connections than
// workers (the pool bounds the STM footprint) and checks every op lands.
func TestServerManyConnsFewWorkers(t *testing.T) {
	srv, addr := startServer(t, WithWorkers(2), WithMaxConns(256))
	const conns, opsPer = 32, 20
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, _, err := Dial(addr, "load")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for op := 0; op < opsPer; op++ {
				k := uint64(id*opsPer + op)
				if st, err := c.Put([]uint64{k, k * 2}); err != nil || st != StatusOK {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Stats().Committed; got < conns*opsPer {
		t.Fatalf("Committed = %d, want >= %d", got, conns*opsPer)
	}
}

// TestServerMaxConns: the cap rejects the surplus connection with a
// StatusDraining frame instead of hanging it.
func TestServerMaxConns(t *testing.T) {
	_, addr := startServer(t, WithWorkers(1), WithMaxConns(1))
	c1, _, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("surplus connection: %v", err)
	}
	if len(payload) != 1 || payload[0] != StatusDraining {
		t.Fatalf("surplus connection payload = %v, want [StatusDraining]", payload)
	}
}

// TestServerStatsOp: the STATS op returns parseable JSON matching the
// server-side snapshot.
func TestServerStatsOp(t *testing.T) {
	_, addr := startServer(t, WithWorkers(2))
	c, _, err := Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, err := c.Put([]uint64{5, 50}); err != nil || st != StatusOK {
		t.Fatalf("Put: status %d err %v", st, err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var ss StatsSnapshot
	if err := json.Unmarshal(raw, &ss); err != nil {
		t.Fatalf("STATS body not JSON: %v\n%s", err, raw)
	}
	if ss.Committed == 0 || ss.Workers != 2 || ss.Conns != 1 {
		t.Fatalf("STATS = %+v", ss)
	}
}

// TestServerRejectsUnsafeAlgorithm: TL2 cannot privatize; New must refuse.
func TestServerRejectsUnsafeAlgorithm(t *testing.T) {
	if _, err := New(WithAlgorithm(stm.TL2)); err == nil {
		t.Fatal("New accepted the privatization-unsafe TL2 baseline")
	}
}

// TestServerShutdownDrainsInFlight: Shutdown during live traffic completes
// in-flight requests and leaves zero quarantined extents (asserted by the
// startServer cleanup; churn here creates retires via Delete/Snapshot).
func TestServerShutdownDrainsInFlight(t *testing.T) {
	_, addr := startServer(t, WithWorkers(3))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, _, err := Dial(addr, "churn")
			if err != nil {
				return
			}
			defer c.Close()
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(id)*1000 + n%37
				if st, err := c.Put([]uint64{k, n}); err != nil || st != StatusOK {
					return
				}
				if n%5 == 0 {
					if _, st, err := c.Delete([]uint64{k}); err != nil || st != StatusOK {
						return
					}
				}
				if n%11 == 0 {
					if _, st, err := c.Snapshot(n); err != nil || st != StatusOK {
						return
					}
				}
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	// startServer's cleanup runs Shutdown and asserts Limbo == 0.
}

// countingListener wraps every accepted connection so its Write calls are
// counted, one counter per connection in accept order.
type countingListener struct {
	net.Listener
	mu     sync.Mutex
	writes []*atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int64)
	l.mu.Lock()
	l.writes = append(l.writes, n)
	l.mu.Unlock()
	return &countingConn{Conn: c, writes: n}, nil
}

func (l *countingListener) conn(i int) *atomic.Int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes[i]
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestServerOneWritePerResponse: every response, whatever the request, is
// framed whole and sent with a single Write — including the error statuses
// and the reject of a connection over WithMaxConns. A client holds the full
// response only after all its writes, so the count read then is final.
func TestServerOneWritePerResponse(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	startServerOn(t, ln, WithWorkers(1), WithMaxConns(1), WithBuckets(1, 1))
	addr := inner.Addr().String()
	c, _, err := Dial(addr, "t") // HELLO
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writes := ln.conn(0)
	if n := writes.Load(); n != 1 {
		t.Fatalf("HELLO: %d writes, want 1", n)
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"STATS", func() error { _, err := c.Stats(); return err }},
		{"PUT", func() error { _, err := c.Put([]uint64{1, 10, 2, 20}); return err }},
		{"GET", func() error { _, _, _, err := c.Get([]uint64{1, 3}); return err }},
		{"CAS", func() error { _, _, err := c.CAS([]uint64{1, 10, 11}); return err }},
		{"DELETE", func() error { _, _, err := c.Delete([]uint64{2}); return err }},
		{"SNAPSHOT", func() error { _, _, err := c.Snapshot(0); return err }},
		{"PUSH", func() error { _, err := c.Push([]uint64{7, 8}); return err }},
		{"POP", func() error { _, _, err := c.Pop(3); return err }},
		{"empty payload", func() error { return wantStatus(c, nil, StatusBadRequest) }},
		{"unknown opcode", func() error { return wantStatus(c, []byte{0xee}, StatusUnsupported) }},
		{"malformed GET", func() error { return wantStatus(c, []byte{OpGet, 1}, StatusBadRequest) }},
	}
	for _, s := range steps {
		before := writes.Load()
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if n := writes.Load() - before; n != 1 {
			t.Errorf("%s: %d writes for one response, want 1", s.name, n)
		}
	}

	surplus, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer surplus.Close()
	surplus.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := ReadFrame(bufio.NewReader(surplus), nil)
	if err != nil || len(payload) != 1 || payload[0] != StatusDraining {
		t.Fatalf("surplus connection: payload %v err %v, want [StatusDraining]", payload, err)
	}
	if n := ln.conn(1).Load(); n != 1 {
		t.Errorf("MaxConns reject: %d writes, want 1", n)
	}
}

// wantStatus sends a raw request payload and checks the response status.
func wantStatus(c *Client, req []byte, want byte) error {
	st, _, err := c.roundTrip(append(make([]byte, frameHdr), req...))
	if err == nil && st != want {
		err = fmt.Errorf("status %d, want %d", st, want)
	}
	return err
}

// TestServerThreadReturnedOnEveryPath: with a single pooled thread, every
// way a request can end — quota abort, deadline abort, malformed body,
// unsupported opcode — must hand the thread back, or the next transaction
// waits forever for it; startServer's cleanup then requires a prompt, clean
// Shutdown with Limbo == 0.
func TestServerThreadReturnedOnEveryPath(t *testing.T) {
	_, addr := startServer(t, WithWorkers(1),
		WithTenantQuota("noisy", Quota{WriteSetCap: 4}),
		WithTenantQuota("slow", Quota{TxnDeadline: time.Nanosecond}))
	dial := func(tenant string) *Client {
		c, _, err := Dial(addr, tenant)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.conn.SetDeadline(time.Now().Add(5 * time.Second)) // a leaked thread hangs the next request
		return c
	}
	noisy, slow, plain := dial("noisy"), dial("slow"), dial("")

	big := make([]uint64, 0, 20)
	for k := uint64(100); k < 110; k++ {
		big = append(big, k, k)
	}
	if st, err := noisy.Put(big); err != nil || st != StatusWriteQuota {
		t.Fatalf("write-set quota: status %d err %v", st, err)
	}
	if st, err := slow.Put([]uint64{1, 1}); err != nil || st != StatusDeadline {
		t.Fatalf("deadline: status %d err %v", st, err)
	}
	if err := wantStatus(plain, []byte{OpPut, 0, 0, 0, 0, 0, 0, 0, 1, 9}, StatusBadRequest); err != nil {
		t.Fatalf("malformed PUT: %v", err)
	}
	if err := wantStatus(plain, []byte{0xee}, StatusUnsupported); err != nil {
		t.Fatalf("unsupported opcode: %v", err)
	}
	if st, err := plain.Put([]uint64{5, 50}); err != nil || st != StatusOK {
		t.Fatalf("PUT after failed requests: status %d err %v (thread leaked?)", st, err)
	}
}
