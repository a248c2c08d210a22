package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"privstm/internal/stats"
)

// spanName identifies the layer call a span wraps. Spans are recorded only
// in traced runs, by the benchmark around calls into each layer's public
// functions; the program under test is not instrumented.
type spanName uint8

const (
	// spanServer+op wraps one server.Client call (kv-tcp).
	spanServer spanName = iota
	_
	_
	_
	_
	spanKVOp     // one in-process kv request (kv-inproc root span)
	spanEngine   // Thread.Atomic (kv-inproc) or Instance.Op (ht-wh)
	spanTDSGet   // tds.Map.Get
	spanTDSPut   // tds.Map.Put
	spanTDSDel   // tds.Map.Delete
	spanTDSSnap  // tds.Map.PrivateSnapshot
	spanTDSWalk  // tds.PrivateList.EachKV
	spanTDSRetir // tds.PrivateList.Retire
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"server.get", "server.put", "server.cas", "server.delete", "server.snapshot",
	"kv.op", "engine.txn", "tds.get", "tds.put", "tds.delete",
	"tds.snapshot", "tds.walk", "tds.retire",
}

// txnClass classifies a traced transaction by the calling thread's own
// counter deltas.
type txnClass uint8

const (
	clsReadOnly txnClass = iota
	clsWriter            // committed a write without waiting at the fence
	clsFenced            // waited at the privatization fence
	clsRetried           // aborted at least once before committing
	numClasses
)

var classNames = [numClasses]string{"readonly", "writer", "fenced", "retried"}

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Root   uint64 `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	id    uint64
	name  spanName
	start int64
}

// spanRing bounds the raw spans one tracer keeps for writing out; the
// histograms below see every span.
const spanRing = 4096

// tracer records the spans of one goroutine. Spans nest strictly on a
// goroutine, so an explicit stack gives each span its parent and root.
// Methods on a nil tracer do nothing, which is the untraced path.
type tracer struct {
	base   time.Time
	idBase uint64
	next   uint64
	stack  []frame
	ring   []span
	total  uint64
	dur    [numSpanNames]hist
	class  [numClasses]hist
}

func newTracer(base time.Time, goroutine int) *tracer {
	return &tracer{base: base, idBase: uint64(goroutine+1) << 48, ring: make([]span, 0, spanRing)}
}

func (t *tracer) begin(n spanName) {
	if t == nil {
		return
	}
	t.next++
	t.stack = append(t.stack, frame{id: t.idBase | t.next, name: n, start: int64(time.Since(t.base))})
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	t.dur[f.name].add(d)
	var parent uint64
	root := f.id
	if len(t.stack) > 0 {
		parent, root = t.stack[len(t.stack)-1].id, t.stack[0].id
	}
	s := span{ID: f.id, Parent: parent, Root: root, Name: spanNames[f.name], Start: f.start, End: now}
	if len(t.ring) < spanRing {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.total%spanRing] = s
	}
	t.total++
	return d
}

// depth is the number of open spans.
func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.stack)
}

// unwind drops spans opened past depth d without recording them. A
// transaction body calls it on entry: an aborted attempt unwinds by panic
// and leaves its inner spans open.
func (t *tracer) unwind(d int) {
	if t != nil && len(t.stack) > d {
		t.stack = t.stack[:d]
	}
}

// classify files a finished transaction of duration d under the class its
// thread's counter deltas give it.
func (t *tracer) classify(before, after *stats.Counters, d int64) {
	if t == nil {
		return
	}
	c := clsReadOnly
	switch {
	case after.Aborts > before.Aborts:
		c = clsRetried
	case after.Fenced > before.Fenced:
		c = clsFenced
	case after.WriterCommits > before.WriterCommits:
		c = clsWriter
	}
	t.class[c].add(d)
}

// mergeTracers folds the goroutines' tracers into one for reporting.
func mergeTracers(ts ...*tracer) *tracer {
	out := &tracer{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for i := range t.dur {
			out.dur[i].merge(&t.dur[i])
		}
		for i := range t.class {
			out.class[i].merge(&t.class[i])
		}
		out.ring = append(out.ring, t.ring...)
		out.total += t.total
	}
	return out
}

// writeTrace writes the kept spans as JSON lines to cfg.spans, if set.
func writeTrace(cfg config, t *tracer) error {
	if cfg.spans == "" {
		return nil
	}
	f, err := os.Create(cfg.spans)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.ring {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
