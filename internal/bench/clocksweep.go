package bench

import (
	"fmt"
	"io"

	stm "privstm"
)

// The clock-scalability sweep: every deferred-clock variant paired against
// an interleaved GV1 baseline of the same engine on the write-heavy small
// hashtable — the highest commit-rate workload in the suite, i.e. the worst
// case for a centralized version clock. Cells carry fig ID "clk".

// ClockVariant is one candidate configuration of the sweep.
type ClockVariant struct {
	Algorithm stm.Algorithm
	Clock     stm.ClockMode
}

// Label renders the variant the way Compare does ("Ord@gv5").
func (v ClockVariant) Label() string {
	l := v.Algorithm.String()
	if v.Clock != stm.ClockGV1 {
		l += "@" + v.Clock.String()
	}
	return l
}

// DefaultClockVariants is the committed sweep: both deferred modes on each
// redo-log engine family (TL2 baseline, ordering, validation, hybrid).
func DefaultClockVariants() []ClockVariant {
	var vs []ClockVariant
	for _, alg := range []stm.Algorithm{stm.TL2, stm.Ord, stm.Val, stm.PVRHybrid} {
		vs = append(vs,
			ClockVariant{Algorithm: alg, Clock: stm.ClockGV5},
			ClockVariant{Algorithm: alg, Clock: stm.ClockLocal},
		)
	}
	return vs
}

// RunClockSweep measures every variant × thread count with RunPaired
// against a same-seed interleaved GV1 baseline, printing a delta table. It
// returns the baseline cells (one per algorithm × threads) and the variant
// cells, all tagged fig "clk". With aa set, each variant's candidate side
// is replaced by a second copy of its baseline — an A/A control run whose
// deltas measure pure host noise.
func RunClockSweep(w io.Writer, hc HarnessConfig, variants []ClockVariant, pairs int, aa bool) (base, cand []*Measurement, err error) {
	hc.fill()
	if len(variants) == 0 {
		variants = DefaultClockVariants()
	}
	if pairs <= 0 {
		pairs = 3
	}
	if aa {
		// A/A: the clock mode plays no part, so one variant per engine.
		seen := map[stm.Algorithm]bool{}
		var uniq []ClockVariant
		for _, v := range variants {
			if !seen[v.Algorithm] {
				seen[v.Algorithm] = true
				uniq = append(uniq, ClockVariant{Algorithm: v.Algorithm})
			}
		}
		variants = uniq
	}
	spec := Hashtable(64, 64)
	mix := WriteHeavy

	mode := "paired A/B"
	if aa {
		mode = "A/A noise control"
	}
	fmt.Fprintf(w, "Clock scalability sweep (%s): %s, mix %s, %d pairs/cell\n",
		mode, spec.Name, mix, pairs)
	fmt.Fprintf(w, "%-16s %7s %12s %12s %8s %12s\n",
		"variant", "threads", "gv1 ops/s", "cand ops/s", "median", "clkRMW/txn")

	seenBase := map[string]bool{}
	for _, v := range variants {
		for _, th := range hc.Threads {
			rcBase := RunConfig{
				Algorithm: v.Algorithm, Threads: th, Mix: mix,
				TxnsPerThread: hc.TxnsPerThread, Duration: hc.Duration, Seed: hc.Seed,
				Tracker: hc.Tracker, DisableExtension: hc.DisableExtension,
				CM: hc.CM, MaxAttempts: hc.MaxAttempts, DisableHintCache: hc.DisableHintCache,
				Free: hc.Free, DisableSandbox: hc.DisableSandbox,
			}
			rcCand := rcBase
			if !aa {
				rcCand.Clock = v.Clock
			}
			pr, err := RunPaired(spec, rcBase, rcCand, pairs)
			if err != nil {
				return nil, nil, err
			}
			pr.A.Fig, pr.B.Fig = "clk", "clk"
			// Emit each engine's GV1 baseline once: the Ord variants all
			// share one, and duplicate cell keys would collide in Compare.
			bk := fmt.Sprintf("%s|%d", v.Algorithm, th)
			if !seenBase[bk] {
				seenBase[bk] = true
				base = append(base, pr.A)
			}
			cand = append(cand, pr.B)
			rmwPerTxn := 0.0
			if c := pr.B.Stats.WriterCommits; c > 0 {
				rmwPerTxn = float64(pr.B.Stats.ClockTicks) / float64(c)
			}
			fmt.Fprintf(w, "%-16s %7d %12.0f %12.0f %+7.1f%% %12.2f\n",
				v.Label(), th, pr.A.Throughput, pr.B.Throughput, pr.MedianPct, rmwPerTxn)
		}
	}
	fmt.Fprintln(w)
	return base, cand, nil
}
