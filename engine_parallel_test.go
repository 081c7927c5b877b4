package datacell

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// parallelWorkload feeds a randomized stream through a fixed query mix at
// the given strategy and parallelism, draining synchronously after every
// batch, and returns each query's full output as a sorted row multiset.
// withNonPartitionable adds a TOP-window query whose verdict is "none":
// under the separate strategy it exercises partitioned and unpartitioned
// members coexisting in one group; under shared/partial it would pin the
// whole group to one partition, defeating the differential, so it is
// omitted there.
func parallelWorkload(t *testing.T, strategy Strategy, parallelism int, withNonPartitionable bool, seed int64) map[string][]string {
	t.Helper()
	eng := New(WithStrategy(strategy), WithParallelism(parallelism))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	queries := []NamedQuery{
		{Name: "rr1", SQL: `select t.v from [select * from s where v < 400] t`},
		{Name: "rr2", SQL: `select t.k, t.v from [select * from s where v >= 300 and v < 700] t where t.v % 2 = 0`},
		{Name: "agg", SQL: `select t.k, count(*) as n, sum(t.v) as total from [select * from s where v >= 100] t group by t.k`},
	}
	if withNonPartitionable {
		queries = append(queries, NamedQuery{
			Name: "np", SQL: `select t.v from [select top 5 * from s] t`,
		})
	}
	if err := eng.RegisterQueries(queries); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for batch := 0; batch < 12; batch++ {
		n := 20 + rng.Intn(60)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{rng.Int63n(16), rng.Int63n(1000)}
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
		out, err := eng.Out(q.Name)
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
		got[q.Name] = rows
	}
	return got
}

// TestParallelDifferential asserts that partitioned execution is
// result-equivalent to single-partition execution: for every sharing
// strategy, the same randomized stream through the same query mix yields
// identical output multisets at P=1 and P=4.
func TestParallelDifferential(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			withNP := strategy == StrategySeparate
			base := parallelWorkload(t, strategy, 1, withNP, 42)
			part := parallelWorkload(t, strategy, 4, withNP, 42)
			for name, want := range base {
				gotRows := part[name]
				if len(gotRows) != len(want) {
					t.Errorf("%s: P=4 produced %d rows, P=1 produced %d", name, len(gotRows), len(want))
					continue
				}
				for i := range want {
					if gotRows[i] != want[i] {
						t.Errorf("%s: row %d differs: P=4 %q vs P=1 %q", name, i, gotRows[i], want[i])
						break
					}
				}
				if len(want) == 0 {
					t.Errorf("%s: workload produced no rows; differential is vacuous", name)
				}
			}
		})
	}
}

// TestParallelismAcrossGroupWiring asserts the group actually partitions:
// P=4 with partitionable members reports 4 partitions, and a
// non-partitionable member pins a shared group back to 1.
func TestParallelismAcrossGroupWiring(t *testing.T) {
	eng := New(WithStrategy(StrategyShared))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q0", `select t.v from [select * from s where v < 10] t`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	gs := eng.Snapshot().Groups
	if len(gs) != 1 || gs[0].Partitions != 4 {
		t.Fatalf("partitionable shared group: %+v", gs)
	}
	// A TOP-window query must see the whole stream; the shared group falls
	// back to one partition.
	if err := eng.RegisterQuery("np", `select t.v from [select top 5 * from s] t`); err != nil {
		t.Fatal(err)
	}
	gs = eng.Snapshot().Groups
	if len(gs) != 1 || gs[0].Partitions != 1 {
		t.Fatalf("group with non-partitionable member should fall back to P=1: %+v", gs)
	}
	if err := eng.RemoveQuery("np"); err != nil {
		t.Fatal(err)
	}
	gs = eng.Snapshot().Groups
	if len(gs) != 1 || gs[0].Partitions != 4 {
		t.Fatalf("group should re-partition after removal: %+v", gs)
	}
}

// TestParallelismPragma drives the parallelism setter through the SQL pragma and
// checks rejection of bad values.
func TestParallelismPragma(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if got := eng.Snapshot().Parallelism; got != 4 {
		t.Fatalf("Snapshot().Parallelism = %d, want 4", got)
	}
	if _, err := eng.Exec(`set parallelism = 0`); err == nil {
		t.Fatal("set parallelism = 0 should be rejected")
	}
	if _, err := eng.Exec(`set parallelism = 'lots'`); err == nil {
		t.Fatal("set parallelism = 'lots' should be rejected")
	}
	if err := New(WithParallelism(-3)).Err(); err == nil {
		t.Fatal("WithParallelism(-3) should be rejected")
	}
}

// TestExplainShowsPartitioning checks the explain surface of the verdict.
func TestExplainShowsPartitioning(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql  string
		want string
	}{
		{`select t.v from [select * from s where v < 10] t`, "partitioning range(v) across 4 partitions"},
		{`select t.v from [select * from s where v % 2 = 0] t`, "partitioning round-robin across 4 partitions"},
		{`select t.k, count(*) as n from [select * from s] t group by t.k`, "partitioning hash(k) across 4 partitions"},
		{`select t.v from [select top 5 * from s] t`, "partitioning none"},
	} {
		out, err := eng.Explain(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("explain of %s missing %q:\n%s", tc.sql, tc.want, out)
		}
	}
	// Under shared wiring an installed non-partitionable member pins the
	// whole group; explain must describe the wiring the query would
	// actually get, not its private verdict.
	if _, err := eng.Exec(`set strategy = 'shared'`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("np", `select t.v from [select top 5 * from s] t`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(`select t.v from [select * from s where v < 10] t`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "group members pin the stream to one partition"; !strings.Contains(out, want) {
		t.Errorf("explain missing %q:\n%s", want, out)
	}
}

// TestParallelRegisterDeregisterRace registers and removes queries, and
// flips strategy and parallelism, while a feeder thread keeps the stream
// under load. It exists to run under -race: the group rewires must never
// race the splitter, clones or merge emitters.
func TestParallelRegisterDeregisterRace(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		rows := make([]Row, 16)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range rows {
				rows[j] = Row{rng.Int63n(16), rng.Int63n(1000)}
			}
			if err := eng.Append("s", rows...); err != nil {
				return
			}
		}
	}()

	strategies := []Strategy{StrategySeparate, StrategyShared, StrategyPartial}
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("rq%d", i)
		sql := fmt.Sprintf(`select t.v from [select * from s where v < %d] t`, 100+i*50)
		if i%5 == 4 {
			sql = `select t.k, count(*) as n from [select * from s] t group by t.k`
		}
		if err := eng.RegisterQuery(name, sql); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := eng.Exec(fmt.Sprintf("set parallelism = %d", 1+i%4)); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if _, err := eng.Exec(fmt.Sprintf("set strategy = '%s'", strategies[(i/3)%len(strategies)])); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 4 {
			if err := eng.RemoveQuery(fmt.Sprintf("rq%d", i-4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if !eng.Drain(30 * time.Second) {
		t.Fatal("engine did not drain after register/deregister churn")
	}
}
