// Package orec is a stmlint test fixture standing in for the runtime's
// ownership-record package: its name puts it in the protected set.
package orec

import "sync/atomic"

// Orec mimics the real ownership record: an atomic owner word plus a
// plain field that only this package's accessors may touch.
type Orec struct {
	Owner atomic.Uint64
	Wts   uint64
}

// WTS is the accessor for the plain field.
func (o *Orec) WTS() uint64 { return o.Wts }

// SetWTS is the mutating accessor.
func (o *Orec) SetWTS(v uint64) { o.Wts = v }

// Handle is a pointer-handle orec record: the atomic words are reached
// through *atomic.Uint64 fields pointing into separate backing arrays, and
// idx is a plain field with an accessor. The rule must see through the
// pointer indirection.
type Handle struct {
	Owner *atomic.Uint64
	Vis   *atomic.Uint64
	idx   uint32
}

// Index is the accessor for the plain field.
func (h *Handle) Index() uint32 { return h.idx }
