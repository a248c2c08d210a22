package main

import "regexp"

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"fixed_rate_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer is what a traced run reports, grouped by layer. A workload that
// bypasses a layer reports that layer's metrics as 0: no call crossed it.
// layers.json records each metric's module, the end-to-end metric it
// should move and the workload it is measured on.
var perLayer = []metricDef{
	// internal/server, through server.Client calls on kv-tcp.
	{"server.get_p50_us", "us"},
	{"server.get_p99_us", "us"},
	{"server.put_p50_us", "us"},
	{"server.put_p99_us", "us"},
	{"server.cas_p50_us", "us"},
	{"server.cas_p99_us", "us"},
	{"server.delete_p50_us", "us"},
	{"server.delete_p99_us", "us"},
	{"server.snapshot_p50_us", "us"},
	{"server.snapshot_p99_us", "us"},
	{"server.p999_us", "us"},
	{"server.connect_p50_us", "us"},
	{"server.connect_max_us", "us"},
	{"server.self_us", "us"},
	{"server.committed_per_ok", "ratio"},
	{"server.shutdown_ms", "ms"},
	// The open-loop phase: how late the sender ran, and the fixed-rate tail,
	// which ms-scale stalls of the host and of the fence's sleeping backoff
	// make too noisy for a bound (five identical runs spread by 2x-20x).
	{"gen.late_p99_us", "us"},
	{"gen.late_pct", "%"},
	{"gen.fixed_rate_p99_us", "us"},
	// Go runtime, from runtime/metrics around the timed chunks.
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_kop", "1/kop"},
	{"go.gc_pause_p99_us", "us"},
	{"go.sched_latency_p99_us", "us"},
	// internal/tds on kv-inproc.
	{"tds.get_ns", "ns"},
	{"tds.put_ns", "ns"},
	{"tds.delete_ns", "ns"},
	{"tds.snapshot_p50_us", "us"},
	{"tds.snapshot_p99_us", "us"},
	{"tds.walk_us", "us"},
	{"tds.retire_us", "us"},
	{"tds.weak_reads_per_op", "1/op"},
	{"tds.semantic_skips_per_op", "1/op"},
	{"tds.abstract_lock_conflicts_per_kop", "1/kop"},
	{"tds.live_keys", "count"},
	// The engine: the privstm API over internal/pvr, core, orec, clock,
	// txnlist and logs.
	{"engine.attempts_per_commit", "1/commit"},
	{"engine.abort_pct", "%"},
	{"engine.writers_fenced_pct", "%"},
	{"engine.pv_reads_skipped_pct", "%"},
	{"engine.pv_updates_per_commit", "1/commit"},
	{"engine.pv_cache_hit_pct", "%"},
	{"engine.fence_spins_per_fenced", "1/fenced"},
	{"engine.readonly_txn_p50_us", "us"},
	{"engine.readonly_txn_p99_us", "us"},
	{"engine.writer_txn_p50_us", "us"},
	{"engine.writer_txn_p99_us", "us"},
	{"engine.fenced_txn_p50_us", "us"},
	{"engine.fenced_txn_p99_us", "us"},
	{"engine.retried_txn_p50_us", "us"},
	{"engine.retried_txn_p99_us", "us"},
	{"engine.clock_ticks_per_commit", "1/commit"},
	{"engine.serialized", "count"},
	{"engine.fence_stalls", "count"},
	{"engine.store_races", "count"},
	// internal/reclaim and internal/heap.
	{"reclaim.retires_per_kop", "1/kop"},
	{"reclaim.collects_per_kop", "1/kop"},
	{"reclaim.limbo_peak", "count"},
	{"reclaim.drain_ms", "ms"},
	{"heap.reuse_pct", "%"},
	{"heap.bump_growth_words", "words"},
	// The benchmark's own cost: traced versus untraced throughput.
	{"trace.overhead_pct", "%"},
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// zeroLayer sets every per-layer metric whose name starts with one of
// prefixes to 0, for layers the workload bypasses.
func (r *result) zeroLayer(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if len(d.name) > len(p) && d.name[:len(p)] == p {
				r.set(d.name, 0)
			}
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
