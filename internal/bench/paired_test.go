package bench

import (
	"io"
	"testing"

	stm "privstm"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 9}, 5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 9, 2}, 3},
		{[]float64{-10, 2, 3}, 2}, // one bad pair must not drag the median
	}
	for _, tc := range cases {
		if got := Median(tc.xs); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		// Median must not reorder the caller's slice.
		if len(tc.xs) > 1 && tc.xs[0] == tc.want && tc.xs[0] < tc.xs[1] {
			t.Errorf("Median mutated its argument: %v", tc.xs)
		}
	}
}

func TestRunPairedInterleaves(t *testing.T) {
	spec := Hashtable(8, 16)
	a := RunConfig{Algorithm: stm.Ord, Threads: 2, Mix: WriteHeavy,
		TxnsPerThread: 200}
	b := a
	b.Clock = stm.ClockGV5
	const pairs = 3
	pr, err := RunPaired(spec, a, b, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Deltas) != pairs {
		t.Fatalf("got %d deltas, want %d", len(pr.Deltas), pairs)
	}
	if len(pr.A.RepThroughputs) != pairs || len(pr.B.RepThroughputs) != pairs {
		t.Fatalf("aggregates hold %d/%d reps, want %d each",
			len(pr.A.RepThroughputs), len(pr.B.RepThroughputs), pairs)
	}
	if pr.MedianPct != Median(pr.Deltas) {
		t.Errorf("MedianPct = %v, want Median(Deltas) = %v", pr.MedianPct, Median(pr.Deltas))
	}
	// Both sides ran the full workload.
	wantOps := uint64(2 * 200 * pairs)
	if pr.A.Ops != wantOps || pr.B.Ops != wantOps {
		t.Errorf("ops = %d/%d, want %d", pr.A.Ops, pr.B.Ops, wantOps)
	}
	// The candidate side actually ran deferred: no commit-path clock RMWs.
	if pr.B.Stats.ClockTicks != 0 {
		t.Errorf("candidate ClockTicks = %d under GV5, want 0", pr.B.Stats.ClockTicks)
	}
	if pr.A.Stats.ClockTicks == 0 {
		t.Error("baseline ClockTicks = 0 under GV1, want > 0")
	}
	if pr.B.Clock != "gv5" || pr.A.Clock != "gv1" {
		t.Errorf("clock labels = %q/%q, want gv1/gv5", pr.A.Clock, pr.B.Clock)
	}
}

func TestRunClockSweepSmoke(t *testing.T) {
	hc := HarnessConfig{Threads: []int{2}, TxnsPerThread: 100, Scale: 8}
	variants := []ClockVariant{
		{Algorithm: stm.Ord, Clock: stm.ClockGV5},
		{Algorithm: stm.Ord, Clock: stm.ClockLocal},
	}
	base, cand, err := RunClockSweep(io.Discard, hc, variants, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// The two Ord variants share one baseline cell.
	if len(base) != 1 {
		t.Fatalf("got %d baseline cells, want 1 (deduped per engine)", len(base))
	}
	if len(cand) != 2 {
		t.Fatalf("got %d candidate cells, want 2", len(cand))
	}
	for i, m := range cand {
		if m.Fig != "clk" {
			t.Errorf("candidate fig = %q, want clk", m.Fig)
		}
		if want := variants[i].Clock.String(); m.Clock != want {
			t.Errorf("candidate clock = %q, want %q", m.Clock, want)
		}
		if len(m.PairDeltas) != 2 {
			t.Errorf("candidate carries %d pair deltas, want 2", len(m.PairDeltas))
		}
	}
	if base[0].Clock != "gv1" {
		t.Errorf("baseline cell clock = %q, want gv1", base[0].Clock)
	}
}
