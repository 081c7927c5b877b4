package datacell

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"

	"datacell/internal/ingest"
	"datacell/internal/vector"
)

// pruneWorkload feeds a randomized stream through a sargable-heavy query
// mix at the given strategy and parallelism and returns each query's
// output as a sorted row multiset. The mix exercises every sargable shape
// the router understands — half-open ranges, BETWEEN, IN-sets, OR-unions,
// point equality — plus a row-local but non-sargable member, and the feed
// includes values outside every predicate so the catch-all actually
// receives residuals.
func pruneWorkload(t *testing.T, strategy Strategy, parallelism int, seed int64) map[string][]string {
	t.Helper()
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(fmt.Sprintf("set strategy = '%s'", strategy)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(fmt.Sprintf("set parallelism = %d", parallelism)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	queries := []NamedQuery{
		{Name: "range", SQL: `select t.v from [select * from s where v >= 100 and v < 400] t`},
		{Name: "between", SQL: `select t.k, t.v from [select * from s where v between 250 and 600] t where t.v % 2 = 0`},
		{Name: "inset", SQL: `select t.v from [select * from s where v in (7, 99, 512)] t`},
		{Name: "orunion", SQL: `select t.v from [select * from s where v < 50 or v >= 900 and v < 950] t`},
		{Name: "point", SQL: `select t.k from [select * from s where v = 333] t`},
	}
	if strategy == StrategySeparate {
		// A row-local member without a sargable predicate: under separate
		// wiring it coexists (own round-robin split); under shared/partial
		// it would downgrade the whole group to round-robin and defeat
		// the pruning differential, so it joins only here.
		queries = append(queries, NamedQuery{
			Name: "nonsarg", SQL: `select t.v from [select * from s where v % 3 = 0] t`,
		})
	}
	if err := eng.RegisterQueries(queries); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for batch := 0; batch < 10; batch++ {
		n := 30 + rng.Intn(50)
		rows := make([]Row, n)
		for i := range rows {
			// Values beyond every predicate (up to 2000) guarantee
			// residuals for the catch-all.
			rows[i] = Row{rng.Int63n(16), rng.Int63n(2000)}
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]string{}
	for _, q := range queries {
		got[q.Name] = sortedRows(t, eng, q.Name)
	}
	return got
}

// sortedRows renders a query's output as a sorted row multiset, one
// "|"-joined line per row.
func sortedRows(t *testing.T, eng *Engine, name string) []string {
	t.Helper()
	out, err := eng.Out(name)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tableOf(out.Snapshot())
	rows := make([]string, 0, len(tbl.Rows))
	for _, r := range tbl.Rows {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = fmt.Sprint(c)
		}
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return rows
}

// TestPrunedRoutingDifferential asserts that range-routed (pruned)
// execution is byte-identical to single-partition execution: for every
// sharing strategy and P ∈ {2, 4}, the same randomized stream through the
// same sargable query mix yields identical output multisets to P=1.
func TestPrunedRoutingDifferential(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			base := pruneWorkload(t, strategy, 1, 99)
			for _, p := range []int{2, 4} {
				part := pruneWorkload(t, strategy, p, 99)
				for name, want := range base {
					gotRows := part[name]
					if len(gotRows) != len(want) {
						t.Errorf("P=%d %s: %d rows, P=1 produced %d", p, name, len(gotRows), len(want))
						continue
					}
					for i := range want {
						if gotRows[i] != want[i] {
							t.Errorf("P=%d %s: row %d differs: %q vs %q", p, name, i, gotRows[i], want[i])
							break
						}
					}
					if len(want) == 0 && name != "point" && name != "inset" {
						t.Errorf("%s: workload produced no rows; differential is vacuous", name)
					}
				}
			}
		})
	}
}

// TestCatchAllReceivesResiduals pins the pruning mechanics: tuples no
// query can match are counted as pruned (they sit in the catch-all, which
// no clone scans), matching tuples are routed into scanned partitions,
// and the query's output is exactly the matching set.
func TestCatchAllReceivesResiduals(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v from [select * from s where v >= 0 and v < 100] t`); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, 300)
	for i := int64(0); i < 300; i++ {
		rows = append(rows, Row{i}) // 0..99 match, 100..299 cannot
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("query emitted %d rows, want 100", out.Len())
	}
	gs := eng.Snapshot().Groups
	if len(gs) != 1 {
		t.Fatalf("groups = %+v", gs)
	}
	g := gs[0]
	if g.Routing != "range(v)" {
		t.Fatalf("routing = %q, want range(v)", g.Routing)
	}
	if g.Pruned != 200 {
		t.Fatalf("pruned = %d, want the 200 tuples outside [0,100)", g.Pruned)
	}
	if g.RoutedParts != 100 {
		t.Fatalf("routed into scanned partitions = %d, want 100", g.RoutedParts)
	}
	if g.Partitions != 4 || g.Wirings != 1 {
		t.Fatalf("partitions/wirings = %d/%d, want 4/1", g.Partitions, g.Wirings)
	}
}

// TestNonSargableStaysRoundRobin asserts the fallback: a row-local
// predicate the sargable analysis cannot bound keeps blind round-robin
// routing — nothing is pruned, every tuple reaches a scanned partition.
func TestNonSargableStaysRoundRobin(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v from [select * from s where v % 2 = 0] t`); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, 100)
	for i := int64(0); i < 100; i++ {
		rows = append(rows, Row{i})
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	g := eng.Snapshot().Groups[0]
	if g.Routing != "round-robin" {
		t.Fatalf("routing = %q, want round-robin", g.Routing)
	}
	if g.Pruned != 0 || g.RoutedParts != 100 {
		t.Fatalf("pruned/routed = %d/%d, want 0/100", g.Pruned, g.RoutedParts)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 50 {
		t.Fatalf("query emitted %d rows, want 50", out.Len())
	}
}

// TestGroupRangeUnionUnderShared asserts the group-wide verdict: under
// shared wiring two sargable members route on the union of their
// intervals — a tuple matching either query reaches the partitions, a
// tuple matching neither is pruned — and both queries stay correct.
func TestGroupRangeUnionUnderShared(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`set strategy = 'shared'`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries([]NamedQuery{
		{Name: "low", SQL: `select t.v from [select * from s where v >= 0 and v < 100] t`},
		{Name: "high", SQL: `select t.v from [select * from s where v >= 200 and v < 300] t`},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, 400)
	for i := int64(0); i < 400; i++ {
		rows = append(rows, Row{i})
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"low": 100, "high": 100} {
		out, err := eng.Out(name)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != want {
			t.Fatalf("%s emitted %d rows, want %d", name, out.Len(), want)
		}
	}
	g := eng.Snapshot().Groups[0]
	if g.Routing != "range(v)" {
		t.Fatalf("routing = %q, want range(v)", g.Routing)
	}
	// [100,200) and [300,400) match neither member: 200 pruned.
	if g.Pruned != 200 || g.RoutedParts != 200 {
		t.Fatalf("pruned/routed = %d/%d, want 200/200", g.Pruned, g.RoutedParts)
	}
}

// TestPruneRewireMigratesCatchAll asserts live rewires never lose
// residuals: tuples parked in the catch-all at P=4 return to the stream
// when parallelism drops to 1, and a late query that *does* match them
// still sees them.
func TestPruneRewireMigratesCatchAll(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`set strategy = 'shared'`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("low", `select t.v from [select * from s where v < 100] t`); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, 200)
	for i := int64(0); i < 200; i++ {
		rows = append(rows, Row{i})
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	if g := eng.Snapshot().Groups[0]; g.Pruned != 100 {
		t.Fatalf("pruned = %d, want 100", g.Pruned)
	}
	// A new member that matches the parked residuals: the rewire must
	// bring them back into scanned territory.
	if err := eng.RegisterQuery("high", `select t.v from [select * from s where v >= 100] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("high")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("late query saw %d residual rows, want 100", out.Len())
	}
}

// appendRange appends v = lo..hi-1 to the single-column stream s and
// runs the net to quiescence.
func appendRange(t *testing.T, eng *Engine, lo, hi int64) {
	t.Helper()
	rows := make([]Row, 0, hi-lo)
	for v := lo; v < hi; v++ {
		rows = append(rows, Row{v})
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
}

// newPruneEngine builds an engine with stream s (v int) at the given
// strategy and parallelism.
func newPruneEngine(t *testing.T, strategy Strategy, p int) *Engine {
	t.Helper()
	eng := New(WithStrategy(strategy), WithParallelism(p))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	return eng
}

// lateJoinerRun registers an outer-predicate member, feeds it, then
// registers an unconstrained member and feeds a little more. At P=1 the
// first member's basket expression consumes every tuple it scans, so the
// late joiner sees only tuples appended after it registered.
func lateJoinerRun(t *testing.T, strategy Strategy, p int) map[string][]string {
	eng := newPruneEngine(t, strategy, p)
	defer eng.Stop()
	if err := eng.RegisterQuery("low", `select t.v from [select * from s] t where t.v < 100`); err != nil {
		t.Fatal(err)
	}
	appendRange(t, eng, 0, 200)
	if err := eng.RegisterQuery("all", `select t.v from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	appendRange(t, eng, 200, 220)
	return map[string][]string{"low": sortedRows(t, eng, "low"), "all": sortedRows(t, eng, "all")}
}

// rewireRun runs two outer-predicate members through parallelism
// ps[0] → ps[1] → ps[2], with an unconstrained member joining right
// after the first switch (before the net runs) and leaving before the
// second.
func rewireRun(t *testing.T, strategy Strategy, ps [3]int) map[string][]string {
	eng := newPruneEngine(t, strategy, ps[0])
	defer eng.Stop()
	if err := eng.RegisterQueries([]NamedQuery{
		{Name: "low", SQL: `select t.v from [select * from s] t where t.v < 100`},
		{Name: "high", SQL: `select t.v from [select * from s] t where t.v >= 150`},
	}); err != nil {
		t.Fatal(err)
	}
	appendRange(t, eng, 0, 200)
	if _, err := eng.Exec(fmt.Sprintf("set parallelism = %d", ps[1])); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("all", `select t.v from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	appendRange(t, eng, 200, 300)
	got := map[string][]string{"all": sortedRows(t, eng, "all")}
	if err := eng.RemoveQuery("all"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(fmt.Sprintf("set parallelism = %d", ps[2])); err != nil {
		t.Fatal(err)
	}
	appendRange(t, eng, 0, 200)
	got["low"] = sortedRows(t, eng, "low")
	got["high"] = sortedRows(t, eng, "high")
	return got
}

// assertSameRows compares per-query sorted outputs against the P=1
// reference. Under partial deletes every member after the first sits
// behind one that consumes everything, so empty is its P=1 answer; the
// first member ("low") always emits, or the differential is vacuous.
func assertSameRows(t *testing.T, what string, got, want map[string][]string) {
	t.Helper()
	for name, w := range want {
		if len(w) == 0 && name == "low" {
			t.Fatalf("%s: %s emitted nothing at P=1; the differential is vacuous", what, name)
		}
		if g := got[name]; strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: %s emitted %d rows, P=1 emitted %d", what, name, len(g), len(w))
		}
	}
}

// TestDiscardedPruningMatchesP1 pins P=1 equivalence for members whose
// basket expression has no WHERE: such a member consumes every tuple it
// scans and rejects the unmatched ones in its outer filter, so a tuple
// outside the pruning set is gone after one firing at P=1. Partitioned
// wiring must drop it likewise rather than park it where a rewire hands
// it to a late joiner: outputs stay byte-identical to P=1 for every
// strategy at P ∈ {2, 4}.
func TestDiscardedPruningMatchesP1(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			base := lateJoinerRun(t, strategy, 1)
			for _, p := range []int{2, 4} {
				assertSameRows(t, fmt.Sprintf("P=%d", p), lateJoinerRun(t, strategy, p), base)
			}
		})
	}
}

// TestDiscardedPruningRewireMatchesP1 is the mid-stream variant: two
// outer-predicate members across a live P 4→1→4 round trip, with a
// member joining right after the drop to P=1, match a run that stays at
// P=1 throughout.
func TestDiscardedPruningRewireMatchesP1(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			assertSameRows(t, "P 4→1→4", rewireRun(t, strategy, [3]int{4, 1, 4}), rewireRun(t, strategy, [3]int{1, 1, 1}))
		})
	}
}

// TestPrunedCountsBothModes asserts GroupInfo.Pruned counts every tuple
// outside the pruning set whether the wiring discards it (no WHERE in
// the basket expression) or parks it in the catch-all (a predicate
// window), for range and hash+prune routing, on the splitter path and
// the route-at-ingest path alike.
func TestPrunedCountsBothModes(t *testing.T) {
	cases := []struct {
		name, sql string
		discard   bool
	}{
		{"range/park", `select t.v from [select * from s where v < 100] t`, false},
		{"range/discard", `select t.v from [select * from s] t where t.v < 100`, true},
		{"hash/park", `select t.k, count(*) as n from [select * from s where v < 100] t group by t.k`, false},
		{"hash/discard", `select t.k, count(*) as n from [select * from s] t where t.v < 100 group by t.k`, true},
	}
	const n, matching = 300, 100
	for _, c := range cases {
		for _, viaIngest := range []bool{false, true} {
			name := c.name + "/splitter"
			if viaIngest {
				name = c.name + "/ingest"
			}
			t.Run(name, func(t *testing.T) {
				eng := New()
				defer eng.Stop()
				if _, err := eng.Exec(`set strategy = 'shared'`); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Exec(`set parallelism = 4`); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
					t.Fatal(err)
				}
				if err := eng.RegisterQuery("q", c.sql); err != nil {
					t.Fatal(err)
				}
				if viaIngest {
					l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{Shards: 1, BatchSize: 32})
					if err != nil {
						t.Fatal(err)
					}
					conn, err := net.Dial("tcp", l.Addrs()[0])
					if err != nil {
						t.Fatal(err)
					}
					bw := ingest.NewBatchWriter(conn, []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}, 32)
					for i := 0; i < n; i++ {
						if err := bw.WriteRow(vector.NewInt(int64(i%4)), vector.NewInt(int64(i))); err != nil {
							t.Fatal(err)
						}
					}
					if err := bw.Flush(); err != nil {
						t.Fatal(err)
					}
					conn.Close()
					waitIngested(t, eng, "s", n)
				} else {
					rows := make([]Row, n)
					for i := range rows {
						rows[i] = Row{int64(i % 4), int64(i)}
					}
					if err := eng.Append("s", rows...); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.RunSync(); err != nil {
					t.Fatal(err)
				}
				g := eng.Snapshot().Groups[0]
				if g.Pruned != n-matching || g.RoutedParts != matching {
					t.Fatalf("pruned/routed = %d/%d, want %d/%d", g.Pruned, g.RoutedParts, n-matching, matching)
				}
				eng.mu.Lock()
				pb := eng.groups["s"].pbs[0]
				eng.mu.Unlock()
				if (pb.CatchAll() == nil) != c.discard {
					t.Fatalf("catch-all present = %v, want discard mode %v", pb.CatchAll() != nil, c.discard)
				}
				if got := sortedRows(t, eng, "q"); len(got) == 0 {
					t.Fatal("query emitted nothing")
				}
			})
		}
	}
}

// TestExplainSaysDiscardOrPark asserts explain tells whether tuples
// outside the pruning set are discarded at routing or parked in the
// catch-all as window residue.
func TestExplainSaysDiscardOrPark(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		`select t.v from [select * from s] t where t.v < 100`:                           "outside (-inf,100) are discarded at routing",
		`select t.v from [select * from s where v < 100] t`:                             "outside (-inf,100) are parked in the catch-all",
		`select t.k, count(*) as n from [select * from s] t where t.v < 9 group by t.k`: "v outside (-inf,9) are discarded at routing",
	} {
		out, err := eng.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("explain of %s lacks %q:\n%s", sql, want, out)
		}
	}
}
