// Package client is the stmlint accessordiscipline fixture: it touches
// protected metadata fields from outside their packages.
package client

import (
	"privstm/internal/analysis/testdata/src/accessor/clock"
	"privstm/internal/analysis/testdata/src/accessor/orec"
)

// Good uses only accessors and atomic method calls.
func Good(o *orec.Orec, c *clock.Clock) uint64 {
	w := o.Owner.Load() // clean: atomic method call on the field
	o.Owner.Store(w | 1)
	o.SetWTS(c.Tick()) // clean: accessor methods
	return o.WTS()
}

// Bad reaches into the protected structs directly.
func Bad(o *orec.Orec, c *clock.Clock) uint64 {
	o.Wts = 9            // want flagged: plain field write from outside
	w := o.Wts           // want flagged: plain field read from outside
	own := o.Owner       // want flagged: copying the atomic word, not calling through it
	ts := c.NowTS.Add(1) // clean: atomic method call
	pc := &c.NowTS       // want flagged: leaking the address sidesteps the accessor
	_ = pc
	return w + ts + own.Load()
}

// Suppressed shows the escape hatch.
func Suppressed(o *orec.Orec) uint64 {
	//stmlint:ignore accessordiscipline single-threaded test harness setup
	return o.Wts
}

// GoodHandle exercises a pointer-handle orec record (orec.Handle):
// method calls through a *atomic.Uint64 field are the accessor, exactly as
// with an embedded atomic word.
func GoodHandle(h *orec.Handle) uint64 {
	w := h.Owner.Load() // clean: atomic method call through the pointer field
	h.Vis.Store(w | 1)  // clean: same
	if h.Owner.CompareAndSwap(w, w+1) {
		return uint64(h.Index()) // clean: accessor for the plain field
	}
	return w
}

// BadHandle shows that the pointer indirection is not an escape hatch.
func BadHandle(h *orec.Handle) uint64 {
	p := h.Owner // want flagged: aliasing the word pointer sidesteps the discipline
	h.Vis = nil  // want flagged: rebinding the handle's pointer field
	v := *h.Vis  // want flagged: dereferencing without an atomic method call
	return p.Load() + v.Load()
}

// GoodThreadClock drives the per-thread clock through its accessors and
// atomic method calls — the only sanctioned ways to touch a clock word.
func GoodThreadClock(l *clock.ThreadClock) uint64 {
	l.AdvanceTo(l.Now() + 1) // clean: accessor methods
	w := l.LocalTS.Load()    // clean: atomic method call on the field
	l.LocalTS.Store(w)       // clean: same
	return w
}

// BadThreadClock reaches into the per-thread clock word directly: merging
// thread-local times must go through AdvanceTo (monotone) and diagnostics
// must go through atomic loads, never copies or aliases of the word.
func BadThreadClock(l *clock.ThreadClock, m *clock.ThreadClock) uint64 {
	w := l.LocalTS  // want flagged: copying the atomic word, not calling through it
	p := &m.LocalTS // want flagged: leaking the address sidesteps AdvanceTo
	_ = p
	return w.Load()
}
