package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"datacell"
	"datacell/internal/bat"
	"datacell/internal/ingest"
)

func TestSameSeedSameFrames(t *testing.T) {
	for _, w := range workloads {
		steps := plan(w.rates, 1)
		a, b, c := newFrameEncoder(w, 7), newFrameEncoder(w, 7), newFrameEncoder(w, 8)
		differs := false
		for _, s := range steps {
			for g := int64(0); g < min(s.frames, 8); g++ {
				fa, err := a.encode(s, g)
				if err != nil {
					t.Fatal(err)
				}
				fa = bytes.Clone(fa)
				fb, _ := b.encode(s, g)
				fc, _ := c.encode(s, g)
				if !bytes.Equal(fa, fb) {
					t.Fatalf("%s: step %s frame %d differs between two encoders of one seed", w.name, s.name, g)
				}
				differs = differs || !bytes.Equal(fa, fc)
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave identical frames", w.name)
		}
	}
}

// TestFramesCarryTheReference decodes generated frames and compares
// every value with what the checkers expect of that tuple.
func TestFramesCarryTheReference(t *testing.T) {
	for _, w := range workloads {
		steps := plan(w.rates, 1)
		ref := &reference{w: w, seed: 3, steps: steps}
		fe := newFrameEncoder(w, 3)
		s := steps[1]
		buf, err := fe.encode(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		rel := bat.NewEmptyRelation(w.schema.names, w.schema.types)
		n, err := ingest.NewFrameReader(bufio.NewReader(bytes.NewReader(buf)), w.schema.types).DecodeFrameInto(rel)
		if err != nil || n != frameTuples {
			t.Fatalf("%s: decoded %d tuples, err %v", w.name, n, err)
		}
		for i := 0; i < n; i++ {
			row := make(datacell.Row, len(w.schema.names))
			for c := range row {
				row[c] = rel.Col(c).Ints()[i]
			}
			if k := row[0].(int64); k != s.keyBase+5*frameTuples+int64(i) || !ref.rowMatches(k, w.schema.names, row) {
				t.Fatalf("%s: tuple %d = %v does not match the reference", w.name, i, row)
			}
		}
	}
}

// smallRef is a run plan small enough to enumerate in a test.
func smallRef(t *testing.T, name string) *reference {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &reference{w: w, seed: 11, steps: plan(rates{light: 5000, nominal: 20000, overload: 100000}, 1)}
}

// project builds the rows a projection of cols delivers for keys.
func project(r *reference, cols []string, keys []int64) datacell.Table {
	tbl := datacell.Table{Cols: cols}
	for _, k := range keys {
		row := datacell.Row{}
		for _, c := range cols {
			v, _ := r.w.value(r.seed, k, c)
			if c == "sts" {
				v, _ = r.stsOf(k)
			}
			row = append(row, v)
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}

func matching(r *reference, keep func(uint64, int64) bool) []int64 {
	var ks []int64
	for k := int64(0); k < r.keys(); k++ {
		if keep(r.seed, k) {
			ks = append(ks, k)
		}
	}
	return ks
}

func failures(c checker) int64 { n, _ := c.failures(); return n }

func TestFilterCheckFlagsInjectedFaults(t *testing.T) {
	r := smallRef(t, "fanout")
	keep := fanPred(0, 100)
	keys := matching(r, keep)
	cols := []string{"k", "v", "sts"}
	good := project(r, cols, keys)
	if len(good.Rows) < 10 {
		t.Fatalf("only %d matching tuples", len(good.Rows))
	}
	c := newFilterCheck(r, keep)
	c.observe(good)
	if n, d := c.failures(); n != 0 || c.units() != c.want(len(r.steps)-1) {
		t.Fatalf("clean delivery flagged: %d (%s)", n, d)
	}

	missing := newFilterCheck(r, keep)
	missing.observe(datacell.Table{Cols: cols, Rows: good.Rows[1:]})
	dup := newFilterCheck(r, keep)
	dup.observe(good)
	dup.observe(datacell.Table{Cols: cols, Rows: good.Rows[:1]})
	wrongVal := newFilterCheck(r, keep)
	bad := project(r, cols, keys)
	bad.Rows[3][1] = bad.Rows[3][1].(int64) + 1
	wrongVal.observe(bad)
	extra := newFilterCheck(r, keep)
	extra.observe(good)
	extra.observe(project(r, cols, matching(r, fanPred(500, 501))[:1]))
	for name, c := range map[string]*filterCheck{"missing": missing, "duplicate": dup, "wrong value": wrongVal, "row failing the predicate": extra} {
		if failures(c) == 0 {
			t.Errorf("%s row not flagged", name)
		}
	}
}

func TestChurnCheckFlagsInjectedFaults(t *testing.T) {
	r := smallRef(t, "durable_churn")
	keep := fanPred(0, 30)
	keys := matching(r, keep)[:20] // a churn query sees a slice of the input
	cols := []string{"k", "v", "sts"}
	c := newChurnCheck(r, keep)
	c.observe(project(r, cols, keys))
	if failures(c) != 0 {
		t.Fatal("clean delivery flagged")
	}
	c.observe(project(r, cols, keys[:1]))
	if failures(c) != 1 {
		t.Errorf("duplicate row not flagged")
	}
	w := newChurnCheck(r, keep)
	w.observe(project(r, cols, matching(r, fanPred(900, 1000))[:1]))
	if failures(w) != 1 {
		t.Errorf("row failing the predicate not flagged")
	}
}

// segRows folds the reference into one delivered row per group.
func segRows(c *segCheck) datacell.Table {
	tbl := datacell.Table{Cols: []string{"xway", "dir", "seg", "minute", "lav", "cars", "sts"}}
	for k, g := range c.reference() {
		tbl.Rows = append(tbl.Rows, datacell.Row{k.xway, k.dir, k.seg, k.minute, g.spd / float64(g.cars), g.cars, int64(0)})
	}
	return tbl
}

func TestSegCheckFlagsInjectedFaults(t *testing.T) {
	r := smallRef(t, "lr_agg")
	c := newSegCheck(r)
	good := segRows(c)
	if len(good.Rows) < 10 {
		t.Fatalf("only %d groups", len(good.Rows))
	}
	// Split one group over two firings: folded totals still match.
	split := datacell.Table{Cols: good.Cols}
	for _, row := range good.Rows {
		if cars := row[5].(int64); cars >= 2 && len(split.Rows) == 0 {
			a, b := append(datacell.Row{}, row...), append(datacell.Row{}, row...)
			a[5], b[5] = cars/2, cars-cars/2
			split.Rows = append(split.Rows, a, b)
			continue
		}
		split.Rows = append(split.Rows, row)
	}
	c.observe(split)
	if n, d := c.failures(); n != 0 || c.units() != c.want(len(r.steps)-1) {
		t.Fatalf("clean delivery flagged: %d (%s)", n, d)
	}

	missing := newSegCheck(r)
	missing.observe(datacell.Table{Cols: good.Cols, Rows: good.Rows[1:]})
	dup := newSegCheck(r)
	dup.observe(good)
	dup.observe(datacell.Table{Cols: good.Cols, Rows: good.Rows[:1]})
	wrong := newSegCheck(r)
	bad := segRows(wrong)
	bad.Rows[0][4] = bad.Rows[0][4].(float64) + 1
	wrong.observe(bad)
	for name, c := range map[string]*segCheck{"missing": missing, "duplicate": dup, "wrong": wrong} {
		if failures(c) == 0 {
			t.Errorf("%s row not flagged", name)
		}
	}
}

func TestCountCheckFlagsInjectedFaults(t *testing.T) {
	r := smallRef(t, "lr_agg")
	bal := func(seed uint64, k int64) bool { return lrFields(seed, k).typ == 2 }
	want := int64(len(matching(r, bal)))
	row := func(n int64) datacell.Table {
		return datacell.Table{Cols: []string{"n", "sts"}, Rows: []datacell.Row{{n, int64(0)}}}
	}
	for _, tc := range []struct {
		name   string
		counts []int64
		bad    bool
	}{
		{"clean, over two firings", []int64{want - 3, 3}, false},
		{"missing", []int64{want - 1}, true},
		{"duplicate", []int64{want, 1}, true},
		{"wrong", []int64{want + 7}, true},
	} {
		c := newCountCheck(r, bal)
		for _, n := range tc.counts {
			c.observe(row(n))
		}
		if got := failures(c) != 0; got != tc.bad {
			t.Errorf("%s: flagged %v, want %v", tc.name, got, tc.bad)
		}
	}
}

var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricTables checks every metric's name and unit, and that
// BENCHMARK.json at the repository root describes the same metrics and
// workloads as this package.
func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or repeated metric name %q", d.name)
		}
		seen[d.name] = true
		if !unitPattern.MatchString(d.unit) {
			t.Errorf("%s: bad unit %q", d.name, d.unit)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) || len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics and %d workloads, the benchmark %d/%d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(doc.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, benchmark has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
}

// TestShortRuns runs every workload for one second, traced and not, and
// checks that the run is correct and prints each metric with its unit.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := newRunner(w, 5, 1, t.TempDir(), traced)
			res, all, fails, err := r.execute()
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d %v", w.name, traced, res.Correct, res.Failed, res.Attempted, fails)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s: printed %d metrics, want %d", w.name, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s printed as %+v", w.name, d.name, m)
				}
			}
			if len(all) != len(endToEnd)+len(perLayer) {
				t.Errorf("%s: computed %d metrics, want %d", w.name, len(all), len(endToEnd)+len(perLayer))
			}
		}
	}
}
