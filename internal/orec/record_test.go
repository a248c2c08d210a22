package orec

import (
	"testing"
	"unsafe"

	"privstm/internal/heap"
)

// TestLayoutsBehaveIdentically drives the handle API through the Fig. 2
// record layout: For/At identity (pointer equality is what the read-set
// dedup and the acquired log rely on), Index stability, and store/load
// round trips through every metadata word with no aliasing among them.
func TestLayoutsBehaveIdentically(t *testing.T) {
	tab := NewTable(64, 1)
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if o.Index() != uint32(i) {
			t.Fatalf("At(%d).Index() = %d", i, o.Index())
		}
		o.Owner().Store(uint64(i) << 2)
		o.Vis().Store(uint64(i)<<2 | 1)
		o.Grace().Store(uint64(i)<<2 | 2)
		o.CurrReader().Store(uint64(i)<<2 | 3)
	}
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		for n, w := range []uint64{o.Owner().Load(), o.Vis().Load(), o.Grace().Load(), o.CurrReader().Load()} {
			if w != uint64(i)<<2|uint64(n) {
				t.Fatalf("record %d word %d = %#x, want %#x: words alias", i, n, w, uint64(i)<<2|uint64(n))
			}
		}
	}
	for a := heap.Addr(0); a < 256; a++ {
		if tab.For(a) != tab.At(tab.Index(a)) {
			t.Fatalf("For(%d) != At(Index(%d))", a, a)
		}
	}
}

// TestLayoutPadding checks the false-sharing contract: one 64-byte record
// per cache line, records at a 64-byte stride on 64-byte boundaries.
func TestLayoutPadding(t *testing.T) {
	if s := unsafe.Sizeof(Orec{}); s != 64 {
		t.Fatalf("Orec size = %d, want 64", s)
	}
	tab := NewTable(64, 1)
	for i := 0; i < tab.Len(); i++ {
		o := tab.At(i)
		if p := uintptr(unsafe.Pointer(o)); p%64 != 0 {
			t.Fatalf("record %d at %#x, not on a 64-byte boundary", i, p)
		}
		if i+1 < tab.Len() {
			if d := uintptr(unsafe.Pointer(tab.At(i+1))) - uintptr(unsafe.Pointer(o)); d != 64 {
				t.Fatalf("stride At(%d)→At(%d) = %d bytes, want 64", i, i+1, d)
			}
		}
	}
}
