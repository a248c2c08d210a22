//go:build !privstm_watermark_race

// slots_safe.go is the production watermark-cache write path: every cache
// write (EnterAt's lowering, the slow-path recompute publish) serializes on
// the writer lock, per the safety argument in slots.go's package comment.
// Building with -tags privstm_watermark_race substitutes slots_race.go,
// which reverts to the pre-fix optimistic publication so the schedule
// explorer can demonstrate rediscovering the historical race.

package txnlist

import "privstm/internal/failpoint"

// EnterAt registers slot id under a previously assigned timestamp ts, which
// may be older than every cached or live begin. It does not return until
// the cache can no longer report a value above ts, so fences and conflict
// scans that start after EnterAt returns always account for the joiner.
func (s *Slots) EnterAt(id int, ts uint64) {
	s.raiseHi(id)
	s.entering.Add(1) // CheckWatermark skips the store→lowering window
	defer s.entering.Add(-1)
	s.slots[id].v.Store(ts<<1 | 1)
	failpoint.Eval(failpoint.SlotsEnterAtLower)
	s.lower(id, ts)
}

// lower makes the cache cover slot id, already stored at ts.
func (s *Slots) lower(id int, ts uint64) {
	s.mu.Lock()
	// Holding the writer lock means no recompute is mid-scan: any scan
	// that publishes after we release will see our slot (stored above).
	// Three cases for the value we find:
	//   - empty: leave it empty — readers scan, and scans see our slot.
	//     (Installing our own timestamp would be unsound: an older
	//     fresh-Enter transaction may be live with the cache never yet
	//     computed, and a valid-looking cache above its begin would lift
	//     the watermark past it.)
	//   - at or below ts: already covers us; leave it.
	//   - above ts: lower it to our slot. Lowering can only delay fences,
	//     never release one early, so it is safe even if the old value was
	//     stale.
	if s.cacheAbove(ts) {
		s.cache.Store(packCache(id, ts))
	}
	s.mu.Unlock()
}

func (s *Slots) oldest(skip int) (uint64, bool) {
	if ts, ok, hit := s.cached(skip); hit {
		return ts, ok
	}
	failpoint.Eval(failpoint.SlotsScanPublish)
	s.mu.Lock()
	// While we waited for the lock another recompute may have re-armed
	// the cache; retry the fast path before paying for a scan.
	if ts, ok, hit := s.cached(skip); hit {
		s.mu.Unlock()
		return ts, ok
	}
	// Slow path, under the writer lock so no EnterAt can register a low
	// timestamp between our scan and our publish; scans is odd meanwhile
	// so a fresh Enter can tell our scan may have missed it.
	s.scans.Add(1)
	minTS, minID, oTS, oAny := s.scanSlots(skip)
	var nc uint64
	if minID >= 0 {
		nc = packCache(minID, minTS)
	}
	s.cache.Store(nc)
	s.scans.Add(1)
	s.mu.Unlock()
	return oTS, oAny
}
