package datacell

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/ingest"
	"datacell/internal/vector"
)

// ingestQueries is the differential workload: every sargable shape the
// router understands plus a residual-producing feed, so range-routed
// wirings exercise their catch-all.
var ingestQueries = []NamedQuery{
	{Name: "range", SQL: `select t.v from [select * from s where v >= 100 and v < 400] t`},
	{Name: "between", SQL: `select t.k, t.v from [select * from s where v between 250 and 600] t where t.v % 2 = 0`},
	{Name: "orunion", SQL: `select t.v from [select * from s where v < 50 or v >= 900 and v < 950] t`},
}

// ingestRows builds the deterministic feed shared by every differential
// leg: values range to 2000 so every predicate leaves residuals.
func ingestRows(n int, seed int64) [][2]int64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][2]int64, n)
	for i := range rows {
		rows[i] = [2]int64{rng.Int63n(16), rng.Int63n(2000)}
	}
	return rows
}

// ingestEngine builds the differential workload engine at the given
// strategy and parallelism.
func ingestEngine(t *testing.T, strategy Strategy, parallelism int) *Engine {
	t.Helper()
	eng := New(WithStrategy(strategy), WithParallelism(parallelism))
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQueries(ingestQueries); err != nil {
		t.Fatal(err)
	}
	return eng
}

// appendWorkload is the differential reference: the rows fed through
// Engine.Append in 64-tuple batches, entering through the stream basket
// and the splitter, and drained synchronously.
func appendWorkload(t *testing.T, strategy Strategy, parallelism int, rows [][2]int64) map[string][]string {
	t.Helper()
	eng := ingestEngine(t, strategy, parallelism)
	defer eng.Stop()
	for lo := 0; lo < len(rows); lo += 64 {
		batch := make([]Row, 0, 64)
		for _, r := range rows[lo:min(lo+64, len(rows))] {
			batch = append(batch, Row{r[0], r[1]})
		}
		if err := eng.Append("s", batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	return ingestOutputs(t, eng)
}

// ingestWorkload feeds rows over TCP — k binary sharded connections or
// one textual connection, both through the listener's route-at-ingest
// path — and returns each query's output as a sorted row multiset.
func ingestWorkload(t *testing.T, strategy Strategy, parallelism int, rows [][2]int64, binary bool, shards int) map[string][]string {
	t.Helper()
	eng := ingestEngine(t, strategy, parallelism)
	defer eng.Stop()
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{
		Shards:    shards,
		BatchSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	addrs := l.Addrs()
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addrs[s%len(addrs)])
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if binary {
				bw := ingest.NewBatchWriter(conn, []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}, 64)
				for i := s; i < len(rows); i += shards {
					if err := bw.WriteRow(vector.NewInt(rows[i][0]), vector.NewInt(rows[i][1])); err != nil {
						t.Error(err)
						return
					}
				}
				if err := bw.Flush(); err != nil {
					t.Error(err)
				}
			} else {
				w := bufio.NewWriter(conn)
				for i := s; i < len(rows); i += shards {
					fmt.Fprintf(w, "%d|%d\n", rows[i][0], rows[i][1])
				}
				w.Flush()
			}
		}(s)
	}
	wg.Wait()
	waitIngested(t, eng, "s", int64(len(rows)))
	if !eng.Drain(60 * time.Second) {
		t.Fatal("engine did not drain")
	}
	return ingestOutputs(t, eng)
}

// ingestOutputs returns each differential query's output as a sorted row
// multiset.
func ingestOutputs(t *testing.T, eng *Engine) map[string][]string {
	t.Helper()
	got := map[string][]string{}
	for _, q := range ingestQueries {
		out, err := eng.Out(q.Name)
		if err != nil {
			t.Fatal(err)
		}
		tbl := tableOf(out.Snapshot())
		lines := make([]string, 0, len(tbl.Rows))
		for _, r := range tbl.Rows {
			parts := make([]string, len(r))
			for i, c := range r {
				parts[i] = fmt.Sprint(c)
			}
			lines = append(lines, strings.Join(parts, "|"))
		}
		sort.Strings(lines)
		got[q.Name] = lines
	}
	return got
}

// waitIngested polls until the stream's receptors have delivered n
// tuples into the kernel.
func waitIngested(t *testing.T, eng *Engine, stream string, n int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range eng.Snapshot().Groups {
			if g.Stream == stream && g.IngestTuples >= n {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("receptors did not deliver %d tuples in time", n)
}

// TestIngestDifferential is the acceptance differential: for every
// strategy and P ∈ {1, 4}, N tuples over k binary sharded connections and
// over one textual connection yield byte-identical query results to the
// same tuples fed through Engine.Append, the stream basket and the
// splitter — including range-routed groups whose catch-all collects
// residuals.
func TestIngestDifferential(t *testing.T) {
	rows := ingestRows(4000, 7)
	for _, strategy := range []Strategy{StrategySeparate, StrategyShared, StrategyPartial} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s_P%d", strategy, p), func(t *testing.T) {
				want := appendWorkload(t, strategy, p, rows)
				legs := []struct {
					name   string
					binary bool
					shards int
				}{{"binary sharded", true, 4}, {"textual", false, 1}}
				for _, leg := range legs {
					got := ingestWorkload(t, strategy, p, rows, leg.binary, leg.shards)
					for name, w := range want {
						g := got[name]
						if len(w) == 0 {
							t.Fatalf("%s produced no rows; differential is vacuous", name)
						}
						if len(g) != len(w) {
							t.Fatalf("%s: %s produced %d rows, Append reference %d", name, leg.name, len(g), len(w))
						}
						for i := range w {
							if g[i] != w[i] {
								t.Fatalf("%s: %s row %d differs: %q vs %q", name, leg.name, i, g[i], w[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestIngestRouteAtIngestActive pins that under a partitioned
// shared-strategy wiring the receptors really do skip the splitter:
// decoded batches land in partition baskets directly, the stream basket
// stays empty, and Groups reports the route.
func TestIngestRouteAtIngestActive(t *testing.T) {
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
	if err := eng.RegisterQuery("q", `select t.v from [select * from s where v >= 0 and v < 1000] t`); err != nil {
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
				t.Fatalf("ingest path = %q, want route-at-ingest", g.IngestPath)
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
		if err := bw.WriteRow(vector.NewInt(int64(i)), vector.NewInt(int64(i%1000))); err != nil {
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
	// The stream basket never saw the tuples: they were routed at ingest.
	eng.mu.Lock()
	streamAppended := eng.groups["s"].stream.Stats().Appended
	eng.mu.Unlock()
	if streamAppended != 0 {
		t.Fatalf("stream basket ingested %d tuples; route-at-ingest should have bypassed it", streamAppended)
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n {
		t.Fatalf("query emitted %d rows, want %d", out.Len(), n)
	}
}

// TestIngestBackpressureStalledFactory is the acceptance backpressure
// test: with the scheduler not yet started (a stalled kernel), binary
// ingest into a partitioned wiring stalls at the high-water mark —
// partition-basket occupancy stays bounded — and once the factories
// start draining, every tuple is processed.
func TestIngestBackpressureStalledFactory(t *testing.T) {
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
	if err := eng.RegisterQuery("q", `select t.v from [select * from s where v >= 0 and v < 1000000] t`); err != nil {
		t.Fatal(err)
	}
	const hw, batch, total = 256, 32, 20000
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{BatchSize: batch, HighWater: hw, LowWater: hw / 2})
	if err != nil {
		t.Fatal(err)
	}
	// Engine NOT started: the factories are a stalled kernel.
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		bw := ingest.NewBatchWriter(conn, []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}, batch)
		for i := 0; i < total; i++ {
			if err := bw.WriteRow(vector.NewInt(int64(i)), vector.NewInt(int64(i))); err != nil {
				done <- err
				return
			}
		}
		done <- bw.Flush()
	}()

	// Wait for the stall, then watch occupancy for a while: it must stay
	// bounded by the high-water mark plus one in-flight batch.
	deadline := time.Now().Add(30 * time.Second)
	stalled := false
	for time.Now().Before(deadline) && !stalled {
		for _, g := range eng.Snapshot().Groups {
			if g.Stream == "s" && g.IngestStalls > 0 {
				stalled = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !stalled {
		t.Fatal("receptor never stalled against the stalled kernel")
	}
	maxOcc := 0
	for i := 0; i < 100; i++ {
		eng.mu.Lock()
		for _, pb := range eng.groups["s"].pbs {
			for _, p := range pb.Parts() {
				if n := p.Len(); n > maxOcc {
					maxOcc = n
				}
			}
		}
		eng.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if maxOcc > hw+batch {
		t.Fatalf("partition occupancy reached %d, want <= high water %d + batch %d", maxOcc, hw, batch)
	}

	// Unstall the kernel: everything must arrive, nothing lost.
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitIngested(t, eng, "s", total)
	if !eng.Drain(60 * time.Second) {
		t.Fatal("engine did not drain")
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != total {
		t.Fatalf("query emitted %d rows, want %d: tuples were lost across the stall", out.Len(), total)
	}
}

// TestIngestLiveReRoute rewires the group — parallelism and strategy
// flips — while binary sharded connections are mid-feed: the quiesced
// sink swaps must neither lose nor duplicate tuples.
func TestIngestLiveReRoute(t *testing.T) {
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
	if err := eng.RegisterQuery("q", `select t.v from [select * from s where v >= 0 and v < 500] t`); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{Shards: 2, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	const total = 20000 // v = i % 1000: exactly half match
	addrs := l.Addrs()
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addrs[s])
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			bw := ingest.NewBatchWriter(conn, []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}, 16)
			for i := s; i < total; i += 2 {
				if err := bw.WriteRow(vector.NewInt(int64(i)), vector.NewInt(int64(i%1000))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := bw.Flush(); err != nil {
				t.Error(err)
			}
		}(s)
	}

	// Rewire storm while the feed runs.
	for i := 0; i < 6; i++ {
		time.Sleep(5 * time.Millisecond)
		if _, err := eng.Exec(fmt.Sprintf("set parallelism = %d", 1+i%4)); err != nil {
			t.Fatal(err)
		}
		st := []Strategy{StrategyShared, StrategySeparate, StrategyPartial}[i%3]
		if _, err := eng.Exec(fmt.Sprintf("set strategy = '%s'", st)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	waitIngested(t, eng, "s", total)
	if !eng.Drain(60 * time.Second) {
		t.Fatal("engine did not drain")
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != total/2 {
		t.Fatalf("query emitted %d rows, want %d (lost or duplicated across rewires)", out.Len(), total/2)
	}
}

// TestListenIngestSpeaksBothProtocols pins that a single-shard
// ListenIngest socket accepts the textual protocol and binary frames on
// the same socket.
func TestListenIngestSpeaksBothProtocols(t *testing.T) {
	eng := New()
	defer eng.Stop()
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("q", `select t.v from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	tc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(tc, "1|10\n2|20\n")
	tc.Close()

	bc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := ingest.NewBatchWriter(bc, []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}, 8)
	if err := bw.WriteRow(vector.NewInt(3), vector.NewInt(30)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	bc.Close()

	waitIngested(t, eng, "s", 3)
	if !eng.Drain(30 * time.Second) {
		t.Fatal("engine did not drain")
	}
	out, err := eng.Out("q")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("query emitted %d rows, want 3", out.Len())
	}
}
