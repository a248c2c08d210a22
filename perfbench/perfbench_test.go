package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	stm "privstm"
	"privstm/internal/server"
)

func TestHistQuantilesMatchSortedSamples(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	gens := map[string]func() int64{
		"small":      func() int64 { return r.Int63n(100) },
		"log-spread": func() int64 { return int64(math.Exp(r.Float64() * 21)) }, // 1ns .. ~1.3ms
		"bimodal": func() int64 {
			if r.Intn(50) == 0 {
				return 3e6 + r.Int63n(1e6)
			}
			return 30e3 + r.Int63n(5e3)
		},
	}
	for name, gen := range gens {
		for _, n := range []int{1, 7, 1000, 100000} {
			var h hist
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = gen()
				h.add(xs[i])
			}
			sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				rank := int(math.Ceil(q * float64(n)))
				if rank < 1 {
					rank = 1
				}
				want := float64(xs[rank-1])
				got := h.quantile(q)
				if tol := want / histSub; math.Abs(got-want) > tol+1e-9 {
					t.Errorf("%s n=%d q=%v: got %.1f, want %.1f ± %.1f", name, n, q, got, want, tol)
				}
			}
			var sum float64
			for _, x := range xs {
				sum += float64(x)
			}
			if got, want := h.mean(), sum/float64(n); math.Abs(got-want) > 1e-6*want+1e-9 {
				t.Errorf("%s n=%d: mean %v, want %v", name, n, got, want)
			}
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty histogram should report 0")
	}
}

// virtualClock advances only when told to: waitUntil jumps forward, and
// the responder adds its service time.
type virtualClock struct{ t time.Duration }

func (c *virtualClock) now() time.Duration { return c.t }

func (c *virtualClock) waitUntil(t time.Duration) time.Duration {
	if c.t < t {
		c.t = t
	}
	return c.t
}

func TestOpenLoopStalledResponderRaisesDueTimeLatency(t *testing.T) {
	const (
		interval = 100 * time.Microsecond
		service  = 10 * time.Microsecond
		stall    = time.Millisecond
		requests = 50
	)
	run := func(stallAt int) *paceStats {
		c := &virtualClock{}
		var ps paceStats
		i := 0
		openLoop(c, 0, requests*interval, 0, interval, &ps, func() bool {
			c.t += service
			if i == stallAt {
				c.t += stall
			}
			i++
			return true
		})
		return &ps
	}

	calm := run(-1)
	if calm.ok != requests || calm.slips != 0 || calm.late.max != 0 || calm.lat.max != int64(service) {
		t.Fatalf("no stall: ok=%d slips=%d late max=%d lat max=%d", calm.ok, calm.slips, calm.late.max, calm.lat.max)
	}

	// Request 5 is due at 500µs and answers at 1510µs. Request 6, due at
	// 600µs, is sent then and answers 920µs after its due time; each later
	// request gains back interval-service = 90µs until the schedule is met.
	ps := run(5)
	if ps.ok != requests {
		t.Fatalf("ok = %d, want %d", ps.ok, requests)
	}
	if got, want := ps.lat.max, int64(stall+service); got != want {
		t.Errorf("stalled request latency %d, want %d", got, want)
	}
	if got, want := ps.late.max, int64(stall+service-interval); got != want {
		t.Errorf("next send %dns late, want %d", got, want)
	}
	// Sends late by more than one interval: 910, 820, ..., 190µs.
	if ps.slips != 9 {
		t.Errorf("slips = %d, want 9", ps.slips)
	}
	// Timed from send, only the stalled request would look slow (1 of 50)
	// and p90 would read 10µs; timed from due, the nine sends queued behind
	// it put p90 at the fifth-largest latency, 560µs.
	if p90 := ps.lat.quantile(0.90); p90 < float64(500*time.Microsecond) {
		t.Errorf("due-time p90 = %.0fns, want the backlog to show", p90)
	}

	failed := 0
	c := &virtualClock{}
	var fps paceStats
	openLoop(c, 0, requests*interval, 0, interval, &fps, func() bool {
		failed++
		return false
	})
	if failed != 1 || fps.fail != 1 || fps.ok != 0 {
		t.Errorf("a failed request should end the loop: calls=%d fail=%d ok=%d", failed, fps.fail, fps.ok)
	}
}

// layersDoc is perfbench/layers.json: what each per-layer metric measures
// and why each workload exists.
type layersDoc struct {
	Workloads map[string]struct {
		Why        string  `json:"why"`
		WorkingSet string  `json:"working_set"`
		RatePerS   float64 `json:"offered_rate_per_s"`
	} `json:"workloads"`
	PerLayer map[string]struct {
		Module   string `json:"module"`
		Moves    string `json:"moves"`
		Workload string `json:"workload"`
	} `json:"per_layer"`
}

type benchDoc struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestMetricNamesAreValidAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
		if !metricUnitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !metricNameRE.MatchString(name) {
			t.Errorf("bad workload name %q", name)
		}
	}

	var bench benchDoc
	readJSON(t, "../BENCHMARK.json", &bench)
	same := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the program %d", len(names), kind, len(defs))
			return
		}
		for i, d := range defs {
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range bench.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
	same("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range bench.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer %s: better %q", m.Name, m.Better)
		}
	}
	same("per_layer", perLayer, names, units)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q is unknown or has no why", w.Name)
		}
	}

	var doc layersDoc
	readJSON(t, "layers.json", &doc)
	rates := map[string]float64{"kv-tcp": kvTCPRate, "kv-inproc": kvInprocRate, "ht-wh": htRate}
	for name := range workloads {
		w, ok := doc.Workloads[name]
		if !ok || w.Why == "" || w.WorkingSet == "" {
			t.Errorf("layers.json: workload %s undocumented", name)
		}
		if w.RatePerS != rates[name] {
			t.Errorf("layers.json: %s offered rate %v, the program runs %v", name, w.RatePerS, rates[name])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Errorf("layers.json documents %d per-layer metrics, the program has %d", len(doc.PerLayer), len(perLayer))
	}
	for _, d := range perLayer {
		m, ok := doc.PerLayer[d.name]
		if !ok || m.Module == "" || m.Moves == "" {
			t.Errorf("layers.json: %s undocumented", d.name)
			continue
		}
		if _, ok := doc.Workloads[m.Workload]; !ok {
			t.Errorf("layers.json: %s measured on unknown workload %q", d.name, m.Workload)
		}
	}
}

var tinySizes = sizes{kvKeys: 4096, kvHeapWords: 1 << 18, kvWarm: 200, htWarm: 2000, probes: 2}

func TestSmokeEveryWorkload(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, window: 300 * time.Millisecond, trace: trace, sz: tinySizes}
			if trace {
				cfg.spans = t.TempDir() + "/spans.jsonl"
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%v",
					name, trace, res.correct(), res.attempted, res.failed, res.chk.msgs)
			}
			if err := res.write(io.Discard, io.Discard); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				for _, d := range endToEnd {
					if v := res.values[d.name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
					}
				}
				continue
			}
			if v := res.values["trace.overhead_pct"]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: trace overhead %v", name, v)
			}
			if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
				t.Errorf("%s: spans file: %v", name, err)
			}
		}
	}
}

// A value the workload cannot have written must fail the run: every key
// is overwritten with 2k+5 before the clients run.
func TestChecksCatchForeignValues(t *testing.T) {
	cfg := config{seed: 3, sz: tinySizes}
	t.Run("kv-inproc", func(t *testing.T) {
		e, err := setupInproc(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.cl[0].th.Atomic(func(tx *stm.Tx) {
			for k := 0; k < cfg.sz.kvKeys; k++ {
				e.m.Put(tx, stm.Word(k), stm.Word(2*k+5))
			}
		}); err != nil {
			t.Fatal(err)
		}
		warm(500, e.op)
		var chk checker
		e.close(&chk)
		if chk.fails == 0 {
			t.Error("a foreign value went unnoticed")
		}
	})
	t.Run("kv-tcp", func(t *testing.T) {
		e, err := setupTCP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < cfg.sz.kvKeys; lo += kvFillBatch {
			var pairs []uint64
			for k := lo; k < lo+kvFillBatch; k++ {
				pairs = append(pairs, uint64(k), uint64(2*k+5))
			}
			if st, err := e.cl[0].c.Put(pairs); err != nil || st != server.StatusOK {
				t.Fatalf("put: %d %v", st, err)
			}
			e.fillOK++
		}
		warm(500, e.op)
		var chk checker
		e.close(&chk)
		if chk.fails == 0 {
			t.Error("a foreign value went unnoticed")
		}
	})
}
