package datacell

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"datacell/internal/ingest"
	"datacell/internal/vector"
)

// adaptiveQueries is the query mix of the adaptive differentials: a
// range query whose verdict routes with a catch-all, and a grouped
// avg query whose partitioned wiring stages partial aggregates and
// merges them with the combining merge (two-phase aggregation).
var adaptiveQueries = []NamedQuery{
	{Name: "rng", SQL: `select t.v from [select * from s where v >= 200 and v < 600] t`},
	{Name: "agg", SQL: `select t.k, avg(t.v) as a, count(*) as n from [select * from s where v < 800] t group by t.k`},
}

// forceAutoP drives the group's controller target directly, exercising
// the same applyAutoPLocked path a controller decision takes.
func forceAutoP(t *testing.T, eng *Engine, stream string, p int) {
	t.Helper()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	g := eng.groups[stream]
	if g == nil {
		t.Fatalf("no group for stream %q", stream)
	}
	if err := eng.applyAutoPLocked(g, p, fmt.Sprintf("test force P=%d", p)); err != nil {
		t.Fatal(err)
	}
}

// adaptiveWorkload runs the adaptive query mix over a randomized stream.
// When auto is set the group runs under controller management and the
// test forces scale-ups and scale-downs mid-stream, so tuples keep
// migrating across wirings of different width while results accumulate.
func adaptiveWorkload(t *testing.T, strategy Strategy, auto bool, withNonPartitionable bool, seed int64) map[string][]string {
	t.Helper()
	eng := New(WithStrategy(strategy))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if auto {
		if _, err := eng.Exec(`set parallelism = auto`); err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err := eng.Exec(`set parallelism = 1`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	queries := adaptiveQueries
	if withNonPartitionable {
		queries = append(queries[:len(queries):len(queries)], NamedQuery{
			Name: "np", SQL: `select t.v from [select top 5 * from s] t`,
		})
	}
	if err := eng.RegisterQueries(queries); err != nil {
		t.Fatal(err)
	}
	// Forced controller trajectory: widen, widen more, collapse, rewiden —
	// every transition migrates in-flight tuples across wirings.
	forced := []int{2, 4, 1, 3}
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
		if auto && batch%3 == 1 {
			// Rewire with the batch still undrained: the swap must carry
			// the in-flight tuples over.
			forceAutoP(t, eng, "s", forced[(batch/3)%len(forced)])
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

// TestAdaptiveDifferential asserts controller-driven execution is
// result-equivalent to static single-partition execution: for every
// sharing strategy, auto mode with forced scale-ups and scale-downs
// mid-stream yields byte-identical output multisets to P=1 — including
// the range query's catch-all routing and the avg query's two-phase
// partial-aggregate merge.
func TestAdaptiveDifferential(t *testing.T) {
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		t.Run(string(strategy), func(t *testing.T) {
			withNP := strategy == StrategySeparate
			want := adaptiveWorkload(t, strategy, false, withNP, 99)
			got := adaptiveWorkload(t, strategy, true, withNP, 99)
			for name, w := range want {
				g := got[name]
				if len(w) == 0 {
					t.Fatalf("%s produced no rows; differential is vacuous", name)
				}
				if len(g) != len(w) {
					t.Fatalf("%s: auto produced %d rows, static P=1 produced %d", name, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s: row %d differs: auto %q vs static %q", name, i, g[i], w[i])
					}
				}
			}
		})
	}
}

// TestAdaptiveScaleUpAndDown drives the controller end to end with
// deterministic ticks: sustained occupancy above the high-water mark
// scales the wiring up step by step to the configured cap, and a drained,
// idle group scales back down to one partition — with GroupInfo
// reporting the targets, the rewire count and the controller's reasons.
func TestAdaptiveScaleUpAndDown(t *testing.T) {
	eng := New(WithAdaptOptions(AdaptOptions{
		HighWater:      64,
		LowWater:       8,
		Patience:       2,
		Cooldown:       time.Millisecond,
		MaxParallelism: 4,
	}))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(adaptiveQueries); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = auto`); err != nil {
		t.Fatal(err)
	}
	info := func() GroupInfo {
		for _, g := range eng.Snapshot().Groups {
			if g.Stream == "s" {
				return g
			}
		}
		t.Fatal("stream s missing from Groups")
		return GroupInfo{}
	}
	if gi := info(); !gi.AutoParallelism || gi.CurrentP != 1 {
		t.Fatalf("after enabling auto: AutoParallelism=%v CurrentP=%d, want true/1", gi.AutoParallelism, gi.CurrentP)
	}

	// Load phase: a big undrained append keeps occupancy far above the
	// high-water mark, so every tick signals backpressure.
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{int64(i % 16), int64(i % 1000)}
	}
	if err := eng.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	tick := func() {
		now = now.Add(time.Second)
		eng.adaptTick(now)
	}
	reached := false
	for i := 0; i < 30 && !reached; i++ {
		tick()
		reached = info().CurrentP == 4
	}
	gi := info()
	if !reached {
		t.Fatalf("controller never scaled to the cap: CurrentP=%d after 30 loaded ticks", gi.CurrentP)
	}
	if gi.Partitions != 4 {
		t.Fatalf("wiring runs %d partitions, want 4", gi.Partitions)
	}
	if !strings.Contains(gi.LastRewireReason, "scale-up") {
		t.Fatalf("LastRewireReason = %q, want a scale-up reason", gi.LastRewireReason)
	}
	if gi.Rewires == 0 {
		t.Fatal("GroupInfo.Rewires stayed 0 across controller rewires")
	}
	if gi.IngestWindow == 0 {
		t.Fatal("GroupInfo.IngestWindow stayed 0; windowed deltas are not being sampled")
	}

	// Drain phase: empty baskets and idle clones walk P back down to 1.
	// Each rewire returns catch-all residue to the private replicas, so a
	// RunSync after every tick plays the role the live scheduler has in
	// production: re-splitting (and re-pruning) the migrated tuples.
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	down := false
	for i := 0; i < 30 && !down; i++ {
		tick()
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
		down = info().CurrentP == 1
	}
	gi = info()
	if !down {
		t.Fatalf("controller never scaled back down: CurrentP=%d after 30 idle ticks", gi.CurrentP)
	}
	if !strings.Contains(gi.LastRewireReason, "scale-down") {
		t.Fatalf("LastRewireReason = %q, want a scale-down reason", gi.LastRewireReason)
	}
	// The full trajectory produced every row exactly once.
	out, err := eng.Out("rng")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Stats().Appended; got != 400 {
		t.Fatalf("rng emitted %d rows across the scale trajectory, want 400", got)
	}
}

// TestAdaptiveCooldownBoundsThrash oscillates the load signal with an
// impatient controller (Patience=1) and asserts the cooldown keeps the
// group from rewiring on every swing.
func TestAdaptiveCooldownBoundsThrash(t *testing.T) {
	eng := New(WithAdaptOptions(AdaptOptions{
		HighWater:      64,
		LowWater:       8,
		Patience:       1,
		Cooldown:       time.Hour,
		MaxParallelism: 4,
	}))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(adaptiveQueries); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = auto`); err != nil {
		t.Fatal(err)
	}
	base := int64(0)
	for _, g := range eng.Snapshot().Groups {
		if g.Stream == "s" {
			base = g.Rewires
		}
	}
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{int64(i % 16), int64(i % 1000)}
	}
	now := time.Now()
	for i := 0; i < 50; i++ {
		// Swing: load up (occupancy high), tick, drain (occupancy zero,
		// clones idle), tick — each half-swing is a full patience run.
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		now = now.Add(100 * time.Millisecond)
		eng.adaptTick(now)
		if err := eng.RunSync(); err != nil {
			t.Fatal(err)
		}
		now = now.Add(100 * time.Millisecond)
		eng.adaptTick(now)
	}
	var rewires int64
	for _, g := range eng.Snapshot().Groups {
		if g.Stream == "s" {
			rewires = g.Rewires - base
		}
	}
	// One decision may land before the first cooldown engages; the hour
	// cooldown blocks everything after.
	if rewires > 1 {
		t.Fatalf("oscillating load caused %d rewires under an hour-long cooldown, want at most 1", rewires)
	}
}

// TestAdaptiveLiveUnderLoad runs the real sampler (Start/Stop) with an
// aggressive controller while batches stream in, then checks the results
// against a static P=1 synchronous run. With -race this doubles as the
// adaptation race test: controller rewires, scheduler firings and
// appends all interleave.
func TestAdaptiveLiveUnderLoad(t *testing.T) {
	want := adaptiveWorkload(t, StrategySeparate, false, false, 7)

	eng := New(WithAdaptOptions(AdaptOptions{
		Tick:           2 * time.Millisecond,
		HighWater:      32,
		LowWater:       4,
		Patience:       1,
		Cooldown:       4 * time.Millisecond,
		MaxParallelism: 4,
	}))
	defer eng.Stop()
	if _, err := eng.Exec(`set parallelism = auto`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(adaptiveQueries); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for batch := 0; batch < 12; batch++ {
		n := 20 + rng.Intn(60)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{rng.Int63n(16), rng.Int63n(1000)}
		}
		if err := eng.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	if !eng.Drain(60 * time.Second) {
		t.Fatal("engine did not drain")
	}
	eng.Stop()
	for _, q := range adaptiveQueries {
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
		w := want[q.Name]
		if len(w) == 0 {
			t.Fatalf("%s produced no rows; differential is vacuous", q.Name)
		}
		if len(rows) != len(w) {
			t.Fatalf("%s: live auto produced %d rows, static P=1 produced %d", q.Name, len(rows), len(w))
		}
		for i := range w {
			if rows[i] != w[i] {
				t.Fatalf("%s: row %d differs: live auto %q vs static %q", q.Name, i, rows[i], w[i])
			}
		}
	}
}

// TestParallelismPragmas covers the SQL surface of adaptive parallelism:
// engine-wide auto, per-stream pins, per-stream auto, per-stream reset,
// and the rejections.
func TestParallelismPragmas(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(adaptiveQueries); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = auto`); err != nil {
		t.Fatal(err)
	}
	if !eng.Snapshot().AutoParallelism {
		t.Fatal("`set parallelism = auto` did not enable the controller")
	}
	if _, err := eng.Exec(`set parallelism = 3 on s`); err != nil {
		t.Fatal(err)
	}
	gi := func() GroupInfo {
		for _, g := range eng.Snapshot().Groups {
			if g.Stream == "s" {
				return g
			}
		}
		t.Fatal("stream s missing from Groups")
		return GroupInfo{}
	}
	if g := gi(); g.AutoParallelism || g.CurrentP != 3 || g.Partitions != 3 {
		t.Fatalf("after pin: auto=%v CurrentP=%d Partitions=%d, want false/3/3", g.AutoParallelism, g.CurrentP, g.Partitions)
	}
	if _, err := eng.Exec(`set parallelism = auto on s`); err != nil {
		t.Fatal(err)
	}
	if g := gi(); !g.AutoParallelism || g.CurrentP != 1 {
		t.Fatalf("after per-stream auto: auto=%v CurrentP=%d, want true/1", g.AutoParallelism, g.CurrentP)
	}
	if _, err := eng.Exec(`set parallelism = default on s`); err != nil {
		t.Fatal(err)
	}
	if g := gi(); !g.AutoParallelism {
		t.Fatal("default on s should fall back to the engine-wide auto setting")
	}
	if _, err := eng.Exec(`set parallelism = 2`); err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().AutoParallelism {
		t.Fatal("`set parallelism = 2` should switch the engine back to static")
	}
	if g := gi(); g.AutoParallelism || g.CurrentP != 2 {
		t.Fatalf("after static 2: auto=%v CurrentP=%d, want false/2", g.AutoParallelism, g.CurrentP)
	}

	for _, bad := range []string{
		`set parallelism = default`,
		`set parallelism = 'sideways'`,
		`set strategy = 'shared' on s`,
		`set parallelism = 2 on nosuch`,
	} {
		if _, err := eng.Exec(bad); err == nil {
			t.Errorf("%s: expected an error", bad)
		}
	}
}

// TestExplainAdaptive asserts explain surfaces the controller verdict:
// the auto target, and the clamp note for plans that cannot partition.
func TestExplainAdaptive(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(adaptiveQueries); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = auto`); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Explain(`select t.v from [select * from s where v < 100] t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "parallelism auto (controller target P=1") {
		t.Fatalf("explain lacks the controller verdict:\n%s", out)
	}
	if !strings.Contains(out, "rewires") {
		t.Fatalf("explain lacks the rewire account:\n%s", out)
	}
	out, err = eng.Explain(`select t.v from [select top 5 * from s] t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "controller refuses scale-up") {
		t.Fatalf("explain of a non-partitionable plan lacks the clamp note:\n%s", out)
	}
}

// TestSeparateRouteAtIngestActive pins the separate-strategy fan-out:
// with partitioned members, receptor batches skip the stream basket,
// the replicator and the splitters entirely — each member's partitioned
// basket is fed directly — and results still come out exactly once.
func TestSeparateRouteAtIngestActive(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`set strategy = 'separate'`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`set parallelism = 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v from [select * from s where v >= 0 and v < 1000] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("g", `select t.k, count(*) as n from [select * from s] t group by t.k`); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{Shards: 2, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, g := range eng.Snapshot().Groups {
		if g.Stream == "s" {
			found = true
			if !strings.HasPrefix(g.IngestPath, "route-at-ingest") {
				t.Fatalf("ingest path = %q, want route-at-ingest fan-out", g.IngestPath)
			}
		}
	}
	if !found {
		t.Fatal("stream s missing from Groups")
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	bw := ingest.NewBatchWriter(conn, []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}, 32)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := bw.WriteRow(vector.NewInt(int64(i%16)), vector.NewInt(int64(i%1000))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitIngested(t, eng, "s", n)
	if !eng.Drain(30 * time.Second) {
		t.Fatal("engine did not drain")
	}
	// The stream basket never saw the tuples: the fan-out delivered each
	// member's copy directly.
	eng.mu.Lock()
	streamAppended := eng.groups["s"].stream.Stats().Appended
	eng.mu.Unlock()
	if streamAppended != 0 {
		t.Fatalf("stream basket ingested %d tuples; separate route-at-ingest should have bypassed it", streamAppended)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n {
		t.Fatalf("query q emitted %d rows, want %d", out.Len(), n)
	}
	gout, err := eng.Out("g")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	tbl := tableOf(gout.Snapshot())
	for _, r := range tbl.Rows {
		total += r[1].(int64)
	}
	if total != n {
		t.Fatalf("grouped counts sum to %d, want %d", total, n)
	}
}
