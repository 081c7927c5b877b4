package ingest

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/vector"
)

var testSchema = struct {
	names []string
	types []vector.Type
}{
	names: []string{"k", "v"},
	types: []vector.Type{vector.Int, vector.Int},
}

func listenTest(t *testing.T, b *basket.Basket, opts Options) *Group {
	t.Helper()
	g, err := Listen("s", "127.0.0.1:0", testSchema.names, testSchema.types,
		NewSwitchTarget(BasketSink(b)), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sendBinary ships n (k, v=k) tuples over one fresh binary connection.
func sendBinary(t *testing.T, addr string, lo, n, batch int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := NewBatchWriter(conn, testSchema.names, testSchema.types, batch)
	for i := 0; i < n; i++ {
		k := int64(lo + i)
		if err := bw.WriteRow(vector.NewInt(k), vector.NewInt(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupShardedBinaryIngest(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	g := listenTest(t, b, Options{Shards: 4, BatchSize: 32})
	addrs := g.Addrs()
	if len(addrs) != 4 {
		t.Fatalf("got %d shard addrs, want 4", len(addrs))
	}
	const perConn = 500
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			sendBinary(t, addr, i*perConn, perConn, 32)
		}(i, addr)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return b.Len() == 4*perConn }, "all tuples ingested")

	total := Stats{}
	for _, st := range g.Stats() {
		total.Conns += st.Conns
		total.Frames += st.Frames
		total.Tuples += st.Tuples
		total.TextConns += st.TextConns
	}
	if total.Conns != 4 || total.TextConns != 0 {
		t.Fatalf("stats: %d conns (%d textual), want 4 binary", total.Conns, total.TextConns)
	}
	if total.Tuples != 4*perConn {
		t.Fatalf("stats: %d tuples delivered, want %d", total.Tuples, 4*perConn)
	}
	if total.Frames == 0 {
		t.Fatal("stats: no frames counted")
	}
}

func TestGroupTextualFallback(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	g := listenTest(t, b, Options{BatchSize: 8})
	conn, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for i := 0; i < 100; i++ {
		fmt.Fprintf(w, "%d|%d\n", i, i*2)
	}
	fmt.Fprintln(w, "not|a number") // structurally invalid: dropped, counted
	fmt.Fprintln(w, "1|2|3")        // arity mismatch: dropped, counted
	w.Flush()
	conn.Close()
	waitFor(t, 5*time.Second, func() bool { return b.Len() == 100 }, "textual tuples ingested")

	st := g.Stats()[0]
	if st.TextConns != 1 {
		t.Fatalf("textual connection not counted: %+v", st)
	}
	if st.Invalid != 2 {
		t.Fatalf("invalid lines = %d, want 2", st.Invalid)
	}
	if st.Tuples != 100 {
		t.Fatalf("tuples = %d, want 100", st.Tuples)
	}
	// The decode batch is cleared and refilled across deliveries; every
	// row must survive the reuse intact and in order.
	rel := b.TakeAll()
	for i := 0; i < rel.Len(); i++ {
		if k, v := rel.Col(0).Ints()[i], rel.Col(1).Ints()[i]; k != int64(i) || v != int64(2*i) {
			t.Fatalf("row %d corrupted across batch reuse: %d|%d", i, k, v)
		}
	}
}

// TestGroupTuplesCreditAcceptedOnBasketClose pins the exact Tuples
// accounting: a tuple counts once the sink accepted it, so a delivery that
// fails because the basket closed mid-stream credits nothing for the lost
// batch, and the connection ends.
func TestGroupTuplesCreditAcceptedOnBasketClose(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	g := listenTest(t, b, Options{BatchSize: 4})
	// Close the basket after the first delivery lands, so a later one
	// fails with ErrClosed while tuples are still decoded.
	firstAppend := make(chan struct{}, 1)
	proceed := make(chan struct{})
	var once sync.Once
	b.SetOnAppend(func() {
		once.Do(func() {
			firstAppend <- struct{}{}
			<-proceed
		})
	})
	conn, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var feed strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&feed, "%d|%d\n", i, i)
	}
	if _, err := conn.Write([]byte(feed.String())); err != nil {
		t.Fatal(err)
	}
	<-firstAppend
	b.Close()
	close(proceed)
	waitFor(t, 5*time.Second, func() bool {
		st := g.Stats()[0]
		return st.Conns == 1 && st.Active == 0
	}, "failed delivery to end the connection")

	st := g.Stats()[0]
	accepted := b.Stats().Appended
	if accepted == 0 || accepted > 4 {
		t.Fatalf("basket accepted %d tuples before closing, want 1..4 (one delivery)", accepted)
	}
	if st.Tuples != accepted {
		t.Fatalf("tuples = %d after a failed delivery, want exactly the %d the basket accepted", st.Tuples, accepted)
	}
}

// TestGroupTuplesCountSinkAccepted pins what Tuples counts when basket
// integrity constraints drop tuples: the tuples the sink accepted.
// Constraint drops show in the basket's Dropped counter and structural
// rejects in Invalid; neither counts as delivered.
func TestGroupTuplesCountSinkAccepted(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	b.AddConstraint(basket.Constraint{
		Name: "nonneg",
		Check: func(rel *bat.Relation) []int32 {
			var keep []int32
			for i, v := range rel.ColByName("v").Ints() {
				if v >= 0 {
					keep = append(keep, int32(i))
				}
			}
			return keep
		},
	})
	g := listenTest(t, b, Options{BatchSize: 100})
	conn, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "1|1\n2|-2\n3|3\nbogus\n")
	conn.Close()
	waitFor(t, 5*time.Second, func() bool {
		st := g.Stats()[0]
		return st.Conns == 1 && st.Active == 0
	}, "connection to finish")

	st := g.Stats()[0]
	if st.Tuples != 2 || st.Invalid != 1 {
		t.Fatalf("tuples = %d, invalid = %d; want 2 accepted and 1 structural reject", st.Tuples, st.Invalid)
	}
	if bs := b.Stats(); b.Len() != 2 || bs.Dropped != 1 {
		t.Fatalf("basket holds %d tuples with %d dropped, want 2 and 1", b.Len(), bs.Dropped)
	}
}

// TestGroupCloseAcceptRace is the regression test for the accept/close
// race: an accept that wins the race with the listener's close must not
// join the wait group after Close started waiting (a WaitGroup misuse
// panic), concurrent and repeated Close calls must all return — also with
// an idle client holding its connection open — and once they have, no
// shard goroutine of any group may remain. Run under -race in CI.
func TestGroupCloseAcceptRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		b := basket.New("s", testSchema.names, testSchema.types)
		g, err := Listen("s", "127.0.0.1:0", testSchema.names, testSchema.types,
			NewSwitchTarget(BasketSink(b)), Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		addrs := g.Addrs()
		idle, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Dial storm: keep new connections racing against Close.
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.Dial("tcp", addrs[d%len(addrs)])
					if err != nil {
						return
					}
					fmt.Fprintf(conn, "%d|%d\n", d, d)
					conn.Close()
				}
			}(d)
		}
		// Concurrent double Close: both must return without panicking.
		var cwg sync.WaitGroup
		for c := 0; c < 2; c++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				g.Close()
			}()
		}
		closed := make(chan struct{})
		go func() {
			cwg.Wait()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return")
		}
		g.Close() // and a third, after the drain
		close(stop)
		wg.Wait()
		idle.Close()
	}
	// Close waits for every accept loop and decode loop; poll briefly for
	// the goroutines to unwind past their final deferred calls.
	waitFor(t, 5*time.Second, func() bool {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return !strings.Contains(stacks, "ingest.(*Group).acceptLoop") &&
			!strings.Contains(stacks, "ingest.(*Group).serveConn")
	}, "every shard goroutine to exit after Close")
}

// TestGroupMixedProtocolsOneSocket pins the sniffing contract: binary and
// textual senders coexist on the same listener.
func TestGroupMixedProtocolsOneSocket(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	g := listenTest(t, b, Options{})
	addr := g.Addrs()[0]

	sendBinary(t, addr, 0, 50, 16)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(conn)
	for i := 0; i < 50; i++ {
		fmt.Fprintf(w, "%d|%d\n", 1000+i, i)
	}
	w.Flush()
	conn.Close()

	waitFor(t, 5*time.Second, func() bool { return b.Len() == 100 }, "mixed ingest")
}

func TestGroupRejectsPoisonedBinaryConn(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	g := listenTest(t, b, Options{BatchSize: 4})
	conn, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	// One good frame, then a corrupted one: the good tuples land, the
	// connection is dropped, the corruption is counted.
	rel := bat.NewEmptyRelation(testSchema.names, testSchema.types)
	rel.AppendRow(vector.NewInt(1), vector.NewInt(2))
	wire, err := AppendFrame(nil, rel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return b.Len() == 1 && g.Stats()[0].Invalid == 1
	}, "good frame delivered, bad frame rejected")
	conn.Close()
}

// TestGroupBackpressureBoundsOccupancy is the package-level backpressure
// contract: with no consumer draining the sink, the receptor stalls at
// the high-water mark and basket occupancy stays bounded; once a consumer
// drains, every tuple arrives — none were lost to the stall.
func TestGroupBackpressureBoundsOccupancy(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	const hw, batch, total = 100, 10, 3000
	g := listenTest(t, b, Options{BatchSize: batch, HighWater: hw, LowWater: 50})

	done := make(chan struct{})
	go func() {
		defer close(done)
		sendBinary(t, g.Addrs()[0], 0, total, batch)
	}()

	// While nothing drains, occupancy must cap at hw plus at most one
	// in-flight batch (the check happens before each delivery).
	maxSeen := 0
	waitFor(t, 10*time.Second, func() bool {
		if n := b.Len(); n > maxSeen {
			maxSeen = n
		}
		return g.Stats()[0].Stalls > 0
	}, "receptor to stall")
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		if n := b.Len(); n > maxSeen {
			maxSeen = n
		}
	}
	if maxSeen > hw+batch {
		t.Fatalf("occupancy reached %d, want <= high water %d + batch %d", maxSeen, hw, batch)
	}

	// Drain: consume everything; the stalled receptor resumes and the full
	// stream arrives.
	got := 0
	waitFor(t, 30*time.Second, func() bool {
		got += b.TakeAll().Len()
		return got == total
	}, "drained stream to deliver every tuple")
	<-done

	st := g.Stats()[0]
	if st.Stalls == 0 || st.StallTime == 0 {
		t.Fatalf("stall accounting missing: %+v", st)
	}
	if st.Tuples != total {
		t.Fatalf("delivered %d tuples, want %d", st.Tuples, total)
	}
}

// TestGroupDeliversOnSenderPause is the regression test for the
// batch-withholding bug: a sender that flushes a small frame (or a few
// text lines) and keeps its connection open must see its tuples
// delivered immediately — BatchSize only coalesces while more input is
// in flight, it is not a minimum.
func TestGroupDeliversOnSenderPause(t *testing.T) {
	b := basket.New("s", testSchema.names, testSchema.types)
	g := listenTest(t, b, Options{}) // default BatchSize 256

	// Binary: one 3-tuple frame, connection stays open.
	bc, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	bw := NewBatchWriter(bc, testSchema.names, testSchema.types, 100)
	for i := int64(0); i < 3; i++ {
		if err := bw.WriteRow(vector.NewInt(i), vector.NewInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return b.Len() == 3 }, "flushed frame to deliver while conn open")

	// Textual: two lines, connection stays open.
	tc, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, err := fmt.Fprintf(tc, "10|10\n11|11\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return b.Len() == 5 }, "text lines to deliver while conn open")
}

// TestGroupSharedSocketFallback pins the fixed-port path: shards that
// cannot bind their own socket become accept loops on the first one.
func TestGroupSharedSocketFallback(t *testing.T) {
	// Grab a concrete free port first.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	b := basket.New("s", testSchema.names, testSchema.types)
	g, err := Listen("s", addr, testSchema.names, testSchema.types,
		NewSwitchTarget(BasketSink(b)), Options{Shards: 3})
	if err != nil {
		t.Skipf("port %s raced away: %v", addr, err)
	}
	defer g.Close()
	addrs := g.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("got %d shards, want 3", len(addrs))
	}
	for _, a := range addrs[1:] {
		if a != addrs[0] {
			t.Fatalf("fixed-port shards should share the socket: %v", addrs)
		}
	}
	sendBinary(t, addrs[0], 0, 200, 64)
	waitFor(t, 5*time.Second, func() bool { return b.Len() == 200 }, "ingest over shared socket")
}

func TestSwitchTargetQuiesceSwapsSink(t *testing.T) {
	b1 := basket.New("a", testSchema.names, testSchema.types)
	b2 := basket.New("b", testSchema.names, testSchema.types)
	tgt := NewSwitchTarget(BasketSink(b1))
	g, err := Listen("s", "127.0.0.1:0", testSchema.names, testSchema.types, tgt, Options{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sendBinary(t, g.Addrs()[0], 0, 10, 1)
	waitFor(t, 5*time.Second, func() bool { return b1.Len() == 10 }, "first sink fed")

	resume := tgt.Quiesce()
	resume(BasketSink(b2))

	sendBinary(t, g.Addrs()[0], 10, 10, 1)
	waitFor(t, 5*time.Second, func() bool { return b2.Len() == 10 }, "second sink fed")
	if b1.Len() != 10 {
		t.Fatalf("first sink grew to %d after the swap", b1.Len())
	}
}
