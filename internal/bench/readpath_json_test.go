package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJSONStddevRuns checks the per-cell standard deviation and run count
// derived from RepThroughputs.
func TestJSONStddevRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	ms := []*Measurement{{
		Fig: "3a", Workload: "hashtable", Algorithm: "pvrCAS",
		Threads: 2, Mix: ReadMostly, Ops: 300,
		Elapsed: time.Second, Throughput: 100,
		RepThroughputs: []float64{90, 100, 110},
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(f, "stddev test", ms); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, cells, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	c := cells[0]
	if c.Runs != 3 {
		t.Errorf("runs = %d, want 3", c.Runs)
	}
	if c.Stddev < 9.9 || c.Stddev > 10.1 { // sample stddev of {90,100,110} = 10
		t.Errorf("stddev = %.3f, want 10", c.Stddev)
	}
}

// TestCompareClockKeys: cells measured under a deferred clock must not be
// matched against default-clock baseline cells — a gv5 run compared to a
// gv1 baseline should report zero matched cells rather than a bogus delta.
// "gv1" and "" are the same key so old baselines predating the field still
// match default runs.
func TestCompareClockKeys(t *testing.T) {
	a := jsonMeasurement{Fig: "3a", Workload: "w", Algorithm: "x", Threads: 1, Mix: "10/10/80"}
	b := a
	b.Clock = "gv1"
	c := a
	c.Clock = "gv5"
	if a.cellKey() != b.cellKey() {
		t.Error("empty and gv1 clocks should share a cell key")
	}
	if a.cellKey() == c.cellKey() {
		t.Error("gv5 cells must not match default-clock cells")
	}
}

// TestCompareFoldsMicros: microbenchmark deltas participate in Compare's
// worst-delta result with throughput-style sign (slower micro = negative),
// so the CI tolerance gate covers them too.
func TestCompareFoldsMicros(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, nsPerOp float64) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		ms := []*Measurement{{
			Fig: "3a", Workload: "w", Algorithm: "x", Threads: 1,
			Mix: ReadMostly, Ops: 100, Elapsed: time.Second, Throughput: 1000,
		}}
		micro := []MicroResult{{Name: "MakeVisibleCovered/CAS", NsPerOp: nsPerOp}}
		if err := WriteJSONReport(f, "", ms, micro); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	oldPath := mk("old.json", 10)
	newPath := mk("new.json", 15) // 50% slower => -50% in throughput terms

	var buf strings.Builder
	worst, err := Compare(&buf, oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if worst > -49.9 || worst < -50.1 {
		t.Errorf("worst = %.1f%%, want -50%% from the micro regression", worst)
	}
	if !strings.Contains(buf.String(), "MakeVisibleCovered/CAS") {
		t.Errorf("compare output missing micro table:\n%s", buf.String())
	}
}
