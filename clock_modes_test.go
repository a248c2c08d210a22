package stm

import (
	"fmt"
	"strings"
	"testing"
)

// newClockSTM builds an STM with a specific clock mode on top of the
// standard test geometry.
func newClockSTM(t *testing.T, alg Algorithm, mode ClockMode) *STM {
	t.Helper()
	s, err := New(Config{
		Algorithm: alg, HeapWords: 1 << 16, OrecCount: 1 << 10,
		Clock: mode,
	})
	if err != nil {
		t.Fatalf("New(%v, clock=%v): %v", alg, mode, err)
	}
	return s
}

// deferredAlgos are the engines that support the deferred clock modes: every
// redo-log engine. The undo-log PVR engines are pinned to GV1 (see
// TestDeferredClockRejectsUndoEngines).
var deferredAlgos = []Algorithm{TL2, Ord, OrdQueue, Val, PVRHybrid}

// TestGV5ReaderAdvances is the deterministic pin for the GV5 reader rule: a
// writer commits at Now()+1 without advancing the clock, so the next reader
// begins at a snapshot time strictly below the committed wts. Observing that
// future timestamp the reader must publish it (AdvanceTo) and extend its
// snapshot — never abort. The whole scenario is sequential, so any abort or
// missed advance is a real bug, not scheduling noise.
func TestGV5ReaderAdvances(t *testing.T) {
	// Val is absent: its commit-side validation fence publishes the wts
	// itself (readers must be able to poll past it), so a Val reader never
	// observes a future timestamp in the first place.
	for _, alg := range []Algorithm{TL2, Ord, OrdQueue, PVRHybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			s := newClockSTM(t, alg, ClockGV5)
			a := s.MustAlloc(1)
			wth := s.MustNewThread()
			rth := s.MustNewThread()
			if err := wth.Atomic(func(tx *Tx) { tx.Store(a, 42) }); err != nil {
				t.Fatalf("writer: %v", err)
			}
			var got Word
			if err := rth.Atomic(func(tx *Tx) { got = tx.Load(a) }); err != nil {
				t.Fatalf("reader: %v", err)
			}
			if got != 42 {
				t.Fatalf("read %d, want 42", got)
			}
			if n := rth.Stats().Aborts; n != 0 {
				t.Errorf("reader aborted %d times; future wts must extend, not abort", n)
			}
			if n := rth.Stats().Extensions; n == 0 {
				t.Error("reader performed no snapshot extension")
			}
			if n := rth.Stats().ClockAdvances; n == 0 {
				t.Error("reader published no clock advance (AdvanceTo)")
			}
			if n := s.Stats().ClockTicks; n != 0 {
				t.Errorf("ClockTicks = %d under GV5, want 0", n)
			}
		})
	}
}

// TestClockTicksEliminated is the acceptance-criterion counter check: under
// the deferred modes the commit path performs no global-clock RMW at all,
// while under GV1 every writer commit performs exactly one.
func TestClockTicksEliminated(t *testing.T) {
	const txns = 50
	run := func(t *testing.T, alg Algorithm, mode ClockMode) *STM {
		s := newClockSTM(t, alg, mode)
		a := s.MustAlloc(1)
		th := s.MustNewThread()
		for i := 0; i < txns; i++ {
			if err := th.Atomic(func(tx *Tx) { tx.Store(a, tx.Load(a)+1) }); err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
		if got := s.DirectLoad(a); got != txns {
			t.Fatalf("counter = %d, want %d", got, txns)
		}
		if n := s.Stats().Aborts; n != 0 {
			t.Fatalf("%d aborts in a single-thread run", n)
		}
		return s
	}
	for _, alg := range deferredAlgos {
		for _, mode := range []ClockMode{ClockGV5, ClockLocal} {
			t.Run(fmt.Sprintf("%v/%v", alg, mode), func(t *testing.T) {
				s := run(t, alg, mode)
				if n := s.Stats().ClockTicks; n != 0 {
					t.Errorf("ClockTicks = %d under %v, want 0", n, mode)
				}
			})
		}
		t.Run(fmt.Sprintf("%v/gv1", alg), func(t *testing.T) {
			s := run(t, alg, ClockGV1)
			if n := s.Stats().ClockTicks; n != txns {
				t.Errorf("ClockTicks = %d under GV1, want %d (one CAS per writer commit)", n, txns)
			}
		})
	}
}

// TestLocalClockMonotoneCommits: under ClockLocal a thread's successive
// commits take strictly increasing timestamps from its own clock even though
// the global clock never moves; a second thread then observes the data
// consistently (its reads force a global-clock advance).
func TestLocalClockMonotoneCommits(t *testing.T) {
	s := newClockSTM(t, Ord, ClockLocal)
	a := s.MustAlloc(2)
	th := s.MustNewThread()
	for i := 0; i < 10; i++ {
		if err := th.Atomic(func(tx *Tx) {
			tx.Store(a, tx.Load(a)+1)
			tx.Store(a+1, tx.Load(a+1)+1)
		}); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	other := s.MustNewThread()
	var x, y Word
	if err := other.Atomic(func(tx *Tx) { x, y = tx.Load(a), tx.Load(a+1) }); err != nil {
		t.Fatalf("observer: %v", err)
	}
	if x != 10 || y != 10 {
		t.Errorf("observed %d/%d, want 10/10", x, y)
	}
	if n := s.Stats().ClockTicks; n != 0 {
		t.Errorf("ClockTicks = %d under local clocks, want 0", n)
	}
	if n := s.Stats().Aborts; n != 0 {
		t.Errorf("%d aborts in a sequential run", n)
	}
}

// TestDeferredClockRejectsUndoEngines: the undo-log PVR engines never extend
// their snapshots and their fence proofs assume every writer commit advances
// the global clock, so New must refuse to pair them with a deferred clock.
func TestDeferredClockRejectsUndoEngines(t *testing.T) {
	for _, alg := range []Algorithm{PVRBase, PVRCAS, PVRStore, PVRWriterOnly} {
		for _, mode := range []ClockMode{ClockGV5, ClockLocal} {
			if _, err := New(Config{
				Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8, Clock: mode,
			}); err == nil {
				t.Errorf("New(%v, clock=%v) succeeded, want ClockGV1 pin error", alg, mode)
			} else if !strings.Contains(err.Error(), "ClockGV1") {
				t.Errorf("New(%v, clock=%v) error %q does not name the ClockGV1 requirement", alg, mode, err)
			}
		}
	}
}

// TestClockModeParse round-trips the public parser.
func TestClockModeParse(t *testing.T) {
	for _, m := range ClockModes {
		got, err := ParseClockMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseClockMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseClockMode("tsc"); err == nil {
		t.Error("ParseClockMode accepted an unknown mode")
	}
}

// TestCommitPathAllocFree pins the allocation discipline of the new commit
// paths: the GV5 and local-clock fast paths must stay 0 allocs/txn, same as
// the GV1 baseline they replace.
func TestCommitPathAllocFree(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		mode ClockMode
	}{
		{"tl2/gv1", TL2, ClockGV1},
		{"tl2/gv5", TL2, ClockGV5},
		{"tl2/local", TL2, ClockLocal},
		{"ord/gv5", Ord, ClockGV5},
		{"ord/local", Ord, ClockLocal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newClockSTM(t, tc.alg, tc.mode)
			a := s.MustAlloc(1)
			th := s.MustNewThread()
			body := func(tx *Tx) { tx.Store(a, tx.Load(a)+1) }
			if err := th.Atomic(body); err != nil { // warm up logs
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := th.Atomic(body); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("commit path allocates %.1f per txn, want 0", n)
			}
		})
	}
}

// TestSerializabilityClockModes reruns the offline conflict-serializability
// oracle over every deferred clock mode × redo engine — the end-to-end
// isolation check for the new commit paths.
func TestSerializabilityClockModes(t *testing.T) {
	for _, alg := range deferredAlgos {
		for _, mode := range []ClockMode{ClockGV5, ClockLocal} {
			t.Run(fmt.Sprintf("%v/%v", alg, mode), func(t *testing.T) {
				serializabilityRun(t, newClockSTM(t, alg, mode), 4, 150, 8)
			})
		}
	}
}
