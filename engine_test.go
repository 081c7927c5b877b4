package datacell

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEngineQuickPath(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket trades (sym string, px float)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("big", `select * from [select * from trades] t where t.px > 100`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []Row
	if _, err := eng.SubscribeQuery("big", SubscribeOptions{OnEmit: func(em Emit) {
		mu.Lock()
		got = append(got, em.Table.Rows...)
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.Append("trades", Row{"ACME", 250.0}, Row{"TINY", 10.0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0][0].(string) != "ACME" {
		t.Errorf("results: %v", got)
	}
}

func TestEngineMultipleQueriesSeparateBaskets(t *testing.T) {
	// Two queries over the same stream must each see every tuple
	// (replication via the separate-baskets strategy).
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("low", `select * from [select * from s] t where t.v < 50`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("high", `select * from [select * from s] t where t.v >= 50`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := eng.Append("s", Row{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	lowOut, err := eng.Out("low")
	if err != nil {
		t.Fatal(err)
	}
	highOut, err := eng.Out("high")
	if err != nil {
		t.Fatal(err)
	}
	if lowOut.Len() != 50 || highOut.Len() != 50 {
		t.Errorf("low=%d high=%d, want 50/50", lowOut.Len(), highOut.Len())
	}
}

func TestEngineOneTimeQuery(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create table hist (id int, bal float)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("hist", Row{1, 100.5}, Row{2, 200.0}); err != nil {
		t.Fatal(err)
	}
	tb, err := eng.Query(`select id, bal from hist where bal > 150`)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 || tb.Rows[0][0].(int64) != 2 {
		t.Errorf("result: %+v", tb)
	}
	if _, err := eng.Query(`select * from [select * from hist] t`); err == nil {
		t.Error("continuous query must be rejected by Query")
	}
}

func TestEnginePipelineQueryChain(t *testing.T) {
	// Query chain: q1 narrows the stream, q2 consumes q1's output.
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("stage1", `select * from [select * from s] t where t.v > 10`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("stage2", `select * from [select * from stage1_out] t where t.v < 20`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := eng.Append("s", Row{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	out, err := eng.Out("stage2")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 9 { // 11..19
		t.Errorf("chain results = %d, want 9", out.Len())
	}
}

func TestEngineTCPRoundTrip(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (ts int, v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("all", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	in, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	if _, err := eng.SubscribeQuery("all", SubscribeOptions{OnEmit: func(em Emit) {
		mu.Lock()
		count += em.Table.Len()
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	conn, err := dial(in.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(conn, "%d|%d\n", i, i*i)
	}
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := count
		mu.Unlock()
		if n >= 10 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 10 {
		t.Errorf("delivered = %d", count)
	}
}

func TestEngineDynamicQueryAfterStart(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("first", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	if err := eng.RegisterQuery("second", `select * from [select * from s] t where t.v > 5`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := eng.Append("s", Row{i}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := eng.Out("second")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for out.Len() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if out.Len() != 4 {
		t.Errorf("dynamic query results = %d, want 4", out.Len())
	}
}

func TestEngineClockInjection(t *testing.T) {
	fixed := time.Unix(1000, 0)
	eng := New(WithClock(func() time.Time { return fixed }))
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{1}); err != nil {
		t.Fatal(err)
	}
	b := eng.Catalog().Basket("s")
	snap := b.Snapshot()
	ts := snap.ColByName("sys_ts")
	if ts.Ints()[0] != fixed.UnixMicro() {
		t.Errorf("arrival ts = %d", ts.Ints()[0])
	}
}

func TestRowConversionErrors(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int, f float, b bool, s string, t timestamp)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{1, 2.5, true, "x", time.Unix(5, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("s", Row{1}); err == nil {
		t.Error("short row should fail")
	}
	if err := eng.Append("s", Row{"NaNint", 2.5, true, "x", time.Unix(5, 0)}); err == nil {
		t.Error("bad int should fail")
	}
	if err := eng.Append("nosuch", Row{1}); err == nil {
		t.Error("unknown stream should fail")
	}
}

// dial is a tiny indirection so the test file has no direct net import noise.

func TestEngineExplainAndStats(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Explain(`select * from [select * from s] t where t.v > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("empty explain")
	}
	if err := eng.RegisterQuery("q", `select * from [select * from s] t where t.v > 5`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := eng.Append("s", Row{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RunSync(); err != nil {
		t.Fatal(err)
	}
	stats := eng.Snapshot().Queries
	if len(stats) != 1 || stats[0].Name != "q" {
		t.Fatalf("stats: %+v", stats)
	}
	if stats[0].Fires == 0 || stats[0].OutRows != 4 || stats[0].Pending != 4 {
		t.Errorf("stats: %+v", stats[0])
	}
	if stats[0].Errors != 0 || stats[0].LastErr != nil {
		t.Errorf("unexpected errors: %+v", stats[0])
	}
}

func TestEngineRemoveQuery(t *testing.T) {
	eng := New()
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("keep", `select * from [select * from s] t`); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("drop", `select * from [select * from s] t where t.v > 5`); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	if err := eng.Append("s", Row{10}); err != nil {
		t.Fatal(err)
	}
	dropOut, _ := eng.Out("drop")
	keepOut, _ := eng.Out("keep")
	deadline := time.Now().Add(5 * time.Second)
	for (dropOut.Len() < 1 || keepOut.Len() < 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dropOut.Len() != 1 {
		t.Fatalf("pre-removal results = %d", dropOut.Len())
	}

	if err := eng.RemoveQuery("drop"); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveQuery("drop"); err == nil {
		t.Error("double removal should fail")
	}
	dropOut.TakeAll()
	// New tuples no longer reach the removed query, but the survivor
	// keeps processing.
	if err := eng.Append("s", Row{20}); err != nil {
		t.Fatal(err)
	}
	for keepOut.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if keepOut.Len() != 2 {
		t.Errorf("survivor results = %d, want 2", keepOut.Len())
	}
	time.Sleep(20 * time.Millisecond)
	if dropOut.Len() != 0 {
		t.Errorf("removed query still produced %d results", dropOut.Len())
	}
	if qs := eng.Snapshot().Queries; len(qs) != 1 {
		t.Errorf("stats still lists removed query: %+v", qs)
	}
}
