package bench

import (
	"fmt"
	"io"
	"sort"

	stm "privstm"
)

// The reclamation-overhead sweep: every engine paired against the legacy
// per-thread free pool on the write-heavy small hashtable — the highest
// free-rate workload in the suite, i.e. the worst case for the epoch
// reclaimer's retire/collect bookkeeping. The A side runs FreePool (the
// pre-reclamation policy), the B side FreeReclaim; pairing interleaves
// same-seed runs so each pair shares its slice of machine conditions (see
// paired.go for why separate runs are useless on this host). Cells carry
// fig ID "rcl".

// RunReclaimSweep measures every algorithm × thread count with RunPaired:
// baseline = legacy pool, candidate = epoch reclaimer. It returns the pool
// baselines and reclaim candidates, all tagged fig "rcl". The printed
// median column is the acceptance number: the per-pair median throughput
// delta of reclaim vs pool.
func RunReclaimSweep(w io.Writer, hc HarnessConfig, algos []stm.Algorithm, pairs int) (base, cand []*Measurement, err error) {
	hc.fill()
	if len(algos) == 0 {
		algos = StandardCurves
	}
	if pairs <= 0 {
		pairs = 3
	}
	spec := Hashtable(64, 64)
	mix := WriteHeavy

	fmt.Fprintf(w, "Reclamation overhead sweep (paired pool vs epoch-reclaim): %s, mix %s, %d pairs/cell\n",
		spec.Name, mix, pairs)
	fmt.Fprintf(w, "%-16s %7s %12s %12s %8s %12s\n",
		"algorithm", "threads", "pool ops/s", "rcl ops/s", "median", "collects")

	var cellMedians []float64
	for _, alg := range algos {
		for _, th := range hc.Threads {
			rcBase := RunConfig{
				Algorithm: alg, Threads: th, Mix: mix,
				TxnsPerThread: hc.TxnsPerThread, Duration: hc.Duration, Seed: hc.Seed,
				Tracker: hc.Tracker, DisableExtension: hc.DisableExtension,
				CM: hc.CM, MaxAttempts: hc.MaxAttempts,
				DisableHintCache: hc.DisableHintCache, Clock: hc.Clock,
				Free: FreePool, DisableSandbox: hc.DisableSandbox,
			}
			rcCand := rcBase
			rcCand.Free = FreeReclaim
			pr, err := RunPaired(spec, rcBase, rcCand, pairs)
			if err != nil {
				return nil, nil, err
			}
			pr.A.Fig, pr.B.Fig = "rcl", "rcl"
			// Tag the pool side so its cell key never collides with the
			// reclaim side in Compare (both run the same engine/threads).
			pr.A.Workload += " pool"
			base = append(base, pr.A)
			cand = append(cand, pr.B)
			cellMedians = append(cellMedians, pr.MedianPct)
			fmt.Fprintf(w, "%-16s %7d %12.0f %12.0f %+7.1f%% %12d\n",
				alg, th, pr.A.Throughput, pr.B.Throughput, pr.MedianPct, pr.B.ReclaimCollects)
		}
	}
	// The acceptance summary: the median cell's paired delta. Individual
	// cells on a timesharing host swing well past the true cost (the
	// multiprogrammed thread counts especially), so the cross-cell median
	// is the stable number to hold against the <5% budget.
	sort.Float64s(cellMedians)
	if n := len(cellMedians); n > 0 {
		agg := cellMedians[n/2]
		if n%2 == 0 {
			agg = (cellMedians[n/2-1] + cellMedians[n/2]) / 2
		}
		fmt.Fprintf(w, "aggregate median across %d cells: %+.1f%%\n", n, agg)
	}
	fmt.Fprintln(w)
	return base, cand, nil
}
