// Command perfbench is the repository's layered benchmark. It runs one
// workload per invocation and prints, as its last line, a JSON object with
// the run's correctness verdict, its operation counts and its metrics:
// the end-to-end metrics of BENCHMARK.json in an untraced run (-trace 0),
// the per-layer metrics in a traced run (-trace 1).
//
//	go run . -workload kv-tcp -seed 1 -seconds 10 -trace 0
//
// Workloads:
//
//	kv-tcp     stmd (internal/server) on loopback TCP, two connections
//	kv-inproc  the same store, key stream and transactions, in process
//	ht-wh      the paper's write-heavy hashtable (Figure 3b) on the engine
//
// The engine under test is pvrStore throughout. The process exits 1 when a
// correctness check fails and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// sizes holds the workload dimensions; tests shrink them.
type sizes struct {
	kvKeys      int // keys pre-populated (and drawn) on the kv workloads
	kvHeapWords int
	kvWarm      int // warm-up requests per kv client
	htWarm      int // warm-up operations per ht-wh thread
	probes      int // sequential dial + HELLO probes timed at set-up
}

var fullSizes = sizes{
	kvKeys:      1 << 20,
	kvHeapWords: kvHeapWords,
	kvWarm:      10000,
	htWarm:      200000,
	probes:      16,
}

type config struct {
	workload string
	seed     uint64
	window   time.Duration // the whole measured time of the run
	trace    bool
	spans    string // traced runs write their kept spans here if set
	sz       sizes
}

// Fixed offered rates of the open-loop phase: a quarter to a third of each
// workload's closed-loop capacity on a 2-vCPU Xeon VM (kv-tcp ~50k req/s,
// kv-inproc ~280k txn/s, ht-wh ~2.2M txn/s). At half capacity the sender
// fell ever further behind after each millisecond stall and the fixed-rate
// figures did not repeat. They are part of the benchmark's definition:
// changing one changes what fixed_rate_p50_us means.
const (
	kvTCPRate    = 16000 // requests/s
	kvInprocRate = 80000 // transactions/s
	htRate       = 500000
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*result, error){
	"kv-tcp":    runKVTCP,
	"kv-inproc": runKVInproc,
	"ht-wh":     runHTWH,
}

func main() {
	var cfg config
	var seconds float64
	flag.StringVar(&cfg.workload, "workload", "", "workload: kv-tcp, kv-inproc or ht-wh")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "traced runs: write kept spans as JSON lines to this file")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = *trace == 1
	cfg.sz = fullSizes
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	if err := res.write(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return fmt.Sprint(ns)
}

// result is one run's outcome.
type result struct {
	chk       checker
	attempted uint64
	failed    uint64
	defs      []metricDef
	values    map[string]float64
	note      string // a diagnostic line for standard error
}

func newResult(defs []metricDef) *result {
	return &result{defs: defs, values: make(map[string]float64, len(defs))}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) correct() bool { return r.chk.fails == 0 && r.failed == 0 }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the diagnostics to diag and the result line to out. Every
// metric of r.defs must have been set.
func (r *result) write(out, diag io.Writer) error {
	ms := make(map[string]metricOut, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		ms[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(diag, "%-40s %14.4f %s\n", d.name, v, d.unit)
	}
	if r.note != "" {
		fmt.Fprintln(diag, r.note)
	}
	for _, m := range r.chk.msgs {
		fmt.Fprintf(diag, "check failed: %s\n", m)
	}
	if r.chk.fails > 0 {
		fmt.Fprintf(diag, "%d correctness checks failed\n", r.chk.fails)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// median of xs.
func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timeSetups runs setup reps times and returns the last set-up's
// environment with the median set-up time; teardown disposes of the
// earlier ones before the next is built.
func timeSetups[E any](reps int, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(env)
			var zero E
			env = zero
			releaseMemory()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		env = e
	}
	return env, median(ds), nil
}
