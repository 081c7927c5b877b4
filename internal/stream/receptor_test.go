package stream_test

// The stream package keeps the periphery's text protocol, emitters and
// replayer; the receptor that reads that protocol off a socket is
// ingest.Group. These tests drive it with textual lines the way a sensor
// does, from this external test package so the import does not cycle.

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"datacell/internal/basket"
	"datacell/internal/ingest"
	"datacell/internal/stream"
	"datacell/internal/vector"
)

// listenReceptor starts a one-shard ingest receptor feeding b.
func listenReceptor(t *testing.T, b *basket.Basket, batch int) *ingest.Group {
	t.Helper()
	names, types := b.UserSchema()
	g, err := ingest.Listen(b.Name(), "127.0.0.1:0", names, types,
		ingest.NewSwitchTarget(ingest.BasketSink(b)), ingest.Options{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// sendLines writes text to the receptor over one connection and closes it.
func sendLines(t *testing.T, addr, text string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
}

// waitStats polls the receptor's single shard until cond holds.
func waitStats(t *testing.T, g *ingest.Group, cond func(ingest.Stats) bool) ingest.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := g.Stats()[0]
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out; receptor stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReceptorValidatesAndBatches(t *testing.T) {
	b := basket.New("in", []string{"ts", "v"}, []vector.Type{vector.Timestamp, vector.Int})
	g := listenReceptor(t, b, 2)
	sendLines(t, g.Addrs()[0], "100|1\nmalformed\n200|2\n300|3\n")
	st := waitStats(t, g, func(st ingest.Stats) bool { return st.Tuples+st.Invalid >= 4 })
	if st.Tuples != 3 || st.Invalid != 1 {
		t.Errorf("received=%d invalid=%d", st.Tuples, st.Invalid)
	}
	if b.Len() != 3 {
		t.Errorf("basket = %d", b.Len())
	}
}

// TestReceptorReusesBatch feeds the receptor more lines than one batch and
// checks counts and contents survive the Clear()-based batch reuse.
func TestReceptorReusesBatch(t *testing.T) {
	b := basket.New("rx", []string{"v", "s"}, []vector.Type{vector.Int, vector.Str})
	g := listenReceptor(t, b, 4)
	var sb strings.Builder
	for i := 0; i < 11; i++ {
		sb.WriteString("1|x\n")
	}
	sb.WriteString("bad-row\n")
	sendLines(t, g.Addrs()[0], sb.String())
	st := waitStats(t, g, func(st ingest.Stats) bool { return st.Tuples+st.Invalid >= 12 })
	if st.Tuples != 11 || st.Invalid != 1 {
		t.Fatalf("received %d invalid %d, want 11/1", st.Tuples, st.Invalid)
	}
	rel := b.TakeAll()
	if rel.Len() != 11 {
		t.Fatalf("basket holds %d tuples, want 11", rel.Len())
	}
	for i := 0; i < 11; i++ {
		if rel.Col(0).Ints()[i] != 1 || rel.Col(1).Strs()[i] != "x" {
			t.Fatalf("row %d corrupted: %v|%v", i, rel.Col(0).Get(i), rel.Col(1).Get(i))
		}
	}
}

func TestTCPPipelineSensorToActuator(t *testing.T) {
	// Full periphery: sensor --TCP--> receptor basket == emitter --TCP--> actuator.
	b := basket.New("pipe", []string{"ts", "v"}, []vector.Type{vector.Timestamp, vector.Int})
	g := listenReceptor(t, b, 0)
	te, err := stream.ServeTCP("127.0.0.1:0", stream.NewEmitter(b))
	if err != nil {
		t.Fatal(err)
	}
	defer te.Close()
	// Actuator connects first so it sees everything.
	actuator, err := net.Dial("tcp", te.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer actuator.Close()
	time.Sleep(10 * time.Millisecond) // allow subscription
	te.Emitter.Start()

	sensor, err := net.Dial("tcp", g.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			fmt.Fprintf(sensor, "%d|%d\n", time.Now().UnixMicro(), i)
		}
		sensor.Close()
	}()

	got := 0
	actuator.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	var acc []byte
	for got < n {
		m, err := actuator.Read(buf)
		if err != nil {
			t.Fatalf("actuator read after %d tuples: %v", got, err)
		}
		acc = append(acc, buf[:m]...)
		got = bytes.Count(acc, []byte{'\n'})
	}
	if got != n {
		t.Errorf("delivered %d, want %d", got, n)
	}
}
