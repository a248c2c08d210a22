//go:build privstm_watermark_race

// slots_race.go reverts the PR-2 watermark-cache fix: cache writes go back
// to optimistic, unlocked publication, reintroducing the historical
// EnterAt-vs-recompute race on purpose. The unsound interleaving:
//
//  1. a recompute scans the slots while a late joiner (EnterAt, old
//     timestamp) has not yet stored its slot — or has, but after the scan
//     passed its index;
//  2. the joiner stores its slot and CAS-lowers the cache to its own
//     (old) timestamp;
//  3. the recompute publishes the minimum its stale scan found,
//     overwriting the lowering — the cache now names a *valid* holder
//     (live, slot matches) with a timestamp above the live joiner's begin.
//
// A privatization fence consulting OldestBegin then releases before the
// joiner completes, exactly the delayed-cleanup failure the paper's fence
// exists to prevent. The schedule explorer's watermark oracle
// (Slots.CheckWatermark) detects state 3 directly.
//
// This file exists so the explorer's regression corpus can demonstrate
// rediscovering a real historical bug (build with
// -tags privstm_watermark_race); production builds use slots_safe.go.

package txnlist

import "privstm/internal/failpoint"

// EnterAt registers slot id under a previously assigned timestamp ts.
// Historical (unsound) version: the cache lowering is an optimistic CAS
// with no writer lock, so it can interleave with a recompute's
// scan-then-publish and be overwritten by a stale minimum.
func (s *Slots) EnterAt(id int, ts uint64) {
	s.raiseHi(id)
	s.entering.Add(1) // CheckWatermark skips the store→lowering window
	defer s.entering.Add(-1)
	s.slots[id].v.Store(ts<<1 | 1)
	failpoint.Eval(failpoint.SlotsEnterAtLower)
	s.lower(id, ts)
}

// lower is the historical optimistic lowering: a CAS loop with no writer
// lock.
func (s *Slots) lower(id int, ts uint64) {
	for {
		c := s.cache.Load()
		if c == 0 {
			return
		}
		if _, cts := unpackCache(c); cts <= ts&slotTSMask {
			return
		}
		if s.cache.CompareAndSwap(c, packCache(id, ts)) {
			return
		}
	}
}

func (s *Slots) oldest(skip int) (uint64, bool) {
	if ts, ok, hit := s.cached(skip); hit {
		return ts, ok
	}
	// Historical (unsound) version: scan and publish with no writer lock.
	// The yield point sits in the scan→publish window, where an EnterAt
	// lowering can slip in and be clobbered by the Store below.
	minTS, minID, oTS, oAny := s.scanSlots(skip)
	failpoint.Eval(failpoint.SlotsScanPublish)
	var nc uint64
	if minID >= 0 {
		nc = packCache(minID, minTS)
	}
	s.cache.Store(nc)
	return oTS, oAny
}
