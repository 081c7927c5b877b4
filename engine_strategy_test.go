package datacell

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// strategyWorkload registers nQueries continuous queries with disjoint
// predicate windows over one stream, feeds a randomized tagged stream in
// several batches with a synchronous drain between them, and returns the
// delivered tag multiset per query (sorted, i.e. order-insensitive).
func strategyWorkload(t *testing.T, strategy Strategy, nQueries, batches, perBatch int, seed int64) map[string][]int64 {
	t.Helper()
	eng := New()
	if _, err := eng.Exec(`create basket s (v int, tag int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(fmt.Sprintf("set strategy = '%s'", strategy)); err != nil {
		t.Fatal(err)
	}
	const width = 80
	domain := int64(nQueries*width + 120) // tail of the domain is covered by no query
	for i := 0; i < nQueries; i++ {
		lo, hi := int64(i)*width, int64(i+1)*width
		src := fmt.Sprintf(`select t.tag from [select * from s where v >= %d and v < %d] t`, lo, hi)
		if err := eng.RegisterQuery(fmt.Sprintf("w%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	tag := int64(0)
	for b := 0; b < batches; b++ {
		rows := make([]Row, perBatch)
		for i := range rows {
			tag++
			rows[i] = Row{rng.Int63n(domain), tag}
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string][]int64{}
	for i := 0; i < nQueries; i++ {
		name := fmt.Sprintf("w%d", i)
		out, err := eng.Out(name)
		if err != nil {
			t.Fatal(err)
		}
		tags := append([]int64(nil), out.TakeAll().ColByName("tag").Ints()...)
		slices.Sort(tags)
		got[name] = tags
	}
	return got
}

func TestEngineStrategyDifferential(t *testing.T) {
	// The same randomized workload must deliver identical per-query result
	// multisets under all three strategies.
	const nQueries, batches, perBatch, seed = 6, 5, 400, 11
	want := strategyWorkload(t, StrategySeparate, nQueries, batches, perBatch, seed)
	total := 0
	for _, tags := range want {
		total += len(tags)
	}
	if total == 0 {
		t.Fatal("workload produced no results at all")
	}
	for _, strategy := range []Strategy{StrategyShared, StrategyPartial} {
		got := strategyWorkload(t, strategy, nQueries, batches, perBatch, seed)
		for name, tags := range want {
			if !slices.Equal(got[name], tags) {
				t.Errorf("%s: query %s delivered %d tags, separate delivered %d",
					strategy, name, len(got[name]), len(tags))
			}
		}
	}
}

func TestEngineStrategyPragmaAndGroups(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().Strategy != StrategySeparate {
		t.Fatalf("default strategy = %s", eng.Snapshot().Strategy)
	}
	if _, err := eng.Exec(`set strategy = 'shared'`); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().Strategy != StrategyShared {
		t.Fatalf("strategy after pragma = %s", eng.Snapshot().Strategy)
	}
	if _, err := eng.Exec(`set strategy = 'bogus'`); err == nil {
		t.Error("bogus strategy accepted")
	}
	// Three queries jointly covering the whole domain share one basket:
	// the stream ingests every tuple exactly once, no replicas exist.
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf(`select t.v from [select * from s where v >= %d and v < %d] t`, i*100, (i+1)*100)
		if err := eng.RegisterQuery(fmt.Sprintf("q%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{i * 3} // 0..297, all covered by some window
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	gs := eng.Snapshot().Groups
	if len(gs) != 1 || gs[0].Stream != "s" {
		t.Fatalf("groups: %+v", gs)
	}
	if gs[0].Strategy != StrategyShared || len(gs[0].Members) != 3 || gs[0].Taps != 0 {
		t.Errorf("group wiring: %+v", gs[0])
	}
	if gs[0].ReplicaAppended != 0 {
		t.Errorf("shared wiring replicated %d tuples", gs[0].ReplicaAppended)
	}
	if st := eng.Catalog().Basket("s").Stats(); st.Appended != 100 {
		t.Errorf("stream ingested %d tuples, want 100", st.Appended)
	}
	// Live switch to separate: the groups rewire and new tuples are
	// replicated once per query.
	if _, err := eng.Exec(`set strategy = 'separate'`); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i] = Row{i * 3}
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	gs = eng.Snapshot().Groups
	if gs[0].Strategy != StrategySeparate {
		t.Errorf("group strategy after switch: %+v", gs[0])
	}
	if gs[0].ReplicaAppended != 300 {
		t.Errorf("separate wiring replicated %d tuples, want 300", gs[0].ReplicaAppended)
	}
	// All 200 tuples were delivered exactly once overall.
	totalOut := int64(0)
	for _, st := range eng.Snapshot().Queries {
		totalOut += st.OutRows
	}
	if totalOut != 200 {
		t.Errorf("delivered %d results, want 200", totalOut)
	}
}

func TestEngineSharedDynamicWhileRunning(t *testing.T) {
	// Queries join and leave a shared-basket group while the scheduler
	// runs; the group rewires live without losing the survivors.
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set strategy = 'shared'`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("evens", `select t.v from [select * from s where v < 50] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	waitFor := func(name string, n int) {
		t.Helper()
		out, err := eng.Out(name)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for out.Stats().Appended < int64(n) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := out.Stats().Appended; got != int64(n) {
			t.Fatalf("%s delivered %d results, want %d", name, got, n)
		}
	}

	if err := eng.Append("s", Row{10}, Row{60}); err != nil {
		t.Fatal(err)
	}
	waitFor("evens", 1)

	// A second member joins the running group.
	if err := eng.RegisterQuery("odds", `select t.v from [select * from s where v >= 50] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{20}, Row{70}); err != nil {
		t.Fatal(err)
	}
	waitFor("evens", 2)
	// The residual 60 stayed in the shared basket (no query covered it),
	// so the late joiner picks it up along with the fresh 70 — shared
	// baskets give predicate windows to late subscribers for free.
	waitFor("odds", 2)

	// The first member leaves; the survivor keeps processing.
	if err := eng.RemoveQuery("evens"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{30}, Row{80}); err != nil {
		t.Fatal(err)
	}
	waitFor("odds", 3)
	if !eng.Drain(5 * time.Second) {
		t.Fatal("network did not quiesce")
	}
}

func TestEngineExplainShowsWiring(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set strategy = 'partial'`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(`select * from [select * from s] t where t.v > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy partial") || !strings.Contains(out, "query group on stream s") {
		t.Errorf("explain missing wiring info:\n%s", out)
	}
	if !strings.Contains(out, "stream-scan artifact") {
		t.Errorf("explain missing stream-scan artifact line:\n%s", out)
	}
}

func TestFig5bPublicEngineNoReplicationUnderSharing(t *testing.T) {
	// The acceptance check of the Figure 5b refactor: under shared and
	// partial wiring the engine ingests each tuple exactly once, with no
	// per-query replication, and all three strategies agree on results.
	const q, tuples, seed = 8, 5_000, 3
	var results [3]int
	for i, s := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		res, err := RunFig5b(s, q, tuples, seed)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		results[i] = res.Results
		if res.StreamAppended != tuples {
			t.Errorf("%s: stream ingested %d tuples, want %d", s, res.StreamAppended, tuples)
		}
		switch s {
		case StrategySeparate:
			if res.ReplicaAppended != int64(q*tuples) {
				t.Errorf("separate: replicated %d tuples, want %d", res.ReplicaAppended, q*tuples)
			}
		default:
			if res.ReplicaAppended != 0 {
				t.Errorf("%s: replicated %d tuples, want 0", s, res.ReplicaAppended)
			}
		}
	}
	if results[0] == 0 {
		t.Fatal("no results at all")
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Errorf("strategies disagree: separate=%d shared=%d partial=%d",
			results[0], results[1], results[2])
	}
}

func TestEngineRegisterQueriesBatch(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	qs := make([]NamedQuery, 10)
	for i := range qs {
		qs[i] = NamedQuery{
			Name: fmt.Sprintf("b%d", i),
			SQL:  fmt.Sprintf(`select t.v from [select * from s where v >= %d and v < %d] t`, i*10, (i+1)*10),
		}
	}
	if err := eng.RegisterQueries(qs); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(qs[:1]); err == nil {
		t.Error("duplicate batch registration accepted")
	}
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{i}
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, st := range eng.Snapshot().Queries {
		total += st.OutRows
	}
	if total != 100 {
		t.Errorf("delivered %d results, want 100", total)
	}
	gs := eng.Snapshot().Groups
	if len(gs) != 1 || len(gs[0].Members) != 10 {
		t.Fatalf("groups: %+v", gs)
	}
}

func TestEngineRemoveQueryDoesNotRecycleReplicaResidue(t *testing.T) {
	// A removed query's private replica retains tuples it never covered;
	// the rewire must not mistake them for in-flight stream data and feed
	// them back (the surviving queries already received their own copies).
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("low", `select t.v from [select * from s where v < 50] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("high", `select t.v from [select * from s where v >= 50] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{10}, Row{60}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	// low's replica still holds the uncovered 60; removing low rewires
	// the group and must drop that residue, not recycle it.
	if err := eng.RemoveQuery("low"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{70}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("high")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Stats().Appended; got != 2 { // 60 and 70, each once
		t.Errorf("high delivered %d results, want 2 (residue recycled?)", got)
	}
}

func TestEngineRegisterQueriesPartialFailureStillWires(t *testing.T) {
	// A failing batch registration must leave the already-added members
	// wired and executing, not dormant in an unwired group.
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("dup", `select t.v from [select * from s where v >= 50] t`); err != nil {
		t.Fatal(err)
	}
	err := eng.RegisterQueries([]NamedQuery{
		{Name: "fresh", SQL: `select t.v from [select * from s where v < 50] t`},
		{Name: "dup", SQL: `select t.v from [select * from s] t`},
	})
	if err == nil {
		t.Fatal("duplicate in batch accepted")
	}
	if err := eng.Append("s", Row{10}, Row{60}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("fresh delivered %d results, want 1 (left unwired?)", out.Len())
	}
}

func TestEngineStrategySwitchMidWorkloadNoLossNoDup(t *testing.T) {
	// Switching strategy between batches must neither lose nor duplicate
	// deliveries relative to a fixed-strategy run.
	const nQueries, perBatch, seed = 4, 300, 23
	baseline := strategyWorkload(t, StrategySeparate, nQueries, 4, perBatch, seed)

	eng := New()
	if _, err := eng.Exec(`create basket s (v int, tag int)`); err != nil {
		t.Fatal(err)
	}
	const width = 80
	domain := int64(nQueries*width + 120)
	for i := 0; i < nQueries; i++ {
		src := fmt.Sprintf(`select t.tag from [select * from s where v >= %d and v < %d] t`, int64(i)*width, int64(i+1)*width)
		if err := eng.RegisterQuery(fmt.Sprintf("w%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	tag := int64(0)
	for b, strat := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial, StrategySeparate} {
		_ = b
		if _, err := eng.Exec(fmt.Sprintf("set strategy = '%s'", strat)); err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, perBatch)
		for i := range rows {
			tag++
			rows[i] = Row{rng.Int63n(domain), tag}
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nQueries; i++ {
		name := fmt.Sprintf("w%d", i)
		out, err := eng.Out(name)
		if err != nil {
			t.Fatal(err)
		}
		tags := append([]int64(nil), out.TakeAll().ColByName("tag").Ints()...)
		slices.Sort(tags)
		if !slices.Equal(tags, baseline[name]) {
			t.Errorf("query %s: switching run delivered %d tags, fixed separate delivered %d",
				name, len(tags), len(baseline[name]))
		}
	}
}
