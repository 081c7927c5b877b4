package basket

import (
	"math"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/interval"
	"datacell/internal/vector"
)

// intBound builds a finite bound of the given integral kind.
func intBound(kind vector.Type, x int64, open bool) interval.Bound {
	v := vector.Value{Kind: kind, I: x}
	if open {
		return interval.Open(v)
	}
	return interval.Closed(v)
}

// intProbes are the values every membership check runs over: the int64
// edges, a dense window around zero, and extra.
func intProbes(extra ...int64) []int64 {
	xs := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2,
		math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64}
	for x := int64(-130); x <= 130; x++ {
		xs = append(xs, x)
	}
	return append(xs, extra...)
}

// checkIntMembership asserts that the compiled spans of an integral set
// agree with Set.Contains on every probe, for Int and Timestamp values,
// both directly and through a range router over Int and Timestamp
// columns.
func checkIntMembership(t *testing.T, set interval.Set, probes []int64) {
	t.Helper()
	spans, ok := compileIntSet(set)
	if !ok {
		t.Fatalf("%s: integral set did not compile", set)
	}
	for i, sp := range spans {
		if sp.lo > sp.hi || (i > 0 && spans[i-1].hi >= sp.lo) {
			t.Fatalf("%s: spans %v are not ascending, disjoint and non-empty", set, spans)
		}
	}
	for _, x := range probes {
		want := set.Contains(vector.NewInt(x))
		if got := containsInt(spans, x); got != want {
			t.Fatalf("%s: containsInt(%d) = %v, Set.Contains = %v (spans %v)", set, x, got, want, spans)
		}
		if ts := set.Contains(vector.NewTimestampMicros(x)); ts != want {
			t.Fatalf("%s: Set.Contains disagrees between Int and Timestamp %d", set, x)
		}
	}
	r, err := NewRangeRouter("v", 1, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []*vector.Vector{vector.FromInts(probes), vector.FromTimestamps(probes)} {
		if r.intsOf(col) == nil {
			t.Fatalf("%s: %v column does not take the typed path", set, col.Kind())
		}
		sels, err := r.RouteInto(bat.NewRelation([]string{"v"}, []*vector.Vector{col}), make([][]int32, 2))
		if err != nil {
			t.Fatal(err)
		}
		in := map[int32]bool{}
		for _, i := range sels[0] {
			in[i] = true
		}
		for i, x := range probes {
			if in[int32(i)] != set.Contains(col.Get(i)) {
				t.Fatalf("%s: %v column routed %d to the wrong slot", set, col.Kind(), x)
			}
		}
	}
}

func TestIntMembershipTable(t *testing.T) {
	iv := func(lo, hi interval.Bound) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }
	ci := func(x int64) interval.Bound { return intBound(vector.Int, x, false) }
	oi := func(x int64) interval.Bound { return intBound(vector.Int, x, true) }
	ts := func(x int64) interval.Bound { return intBound(vector.Timestamp, x, false) }
	inf := interval.Unbounded()
	cases := []struct {
		name  string
		set   interval.Set
		spans int
	}{
		{"empty", interval.Set{}, 0},
		{"closed", interval.NewSet(iv(ci(0), ci(10))), 1},
		{"half-open", interval.NewSet(iv(ci(0), oi(10))), 1},
		{"open", interval.NewSet(iv(oi(0), oi(10))), 1},
		{"empty integer span (3,4)", interval.NewSet(iv(oi(3), oi(4))), 0},
		{"point (3,5)", interval.NewSet(iv(oi(3), oi(5))), 1},
		{"below", interval.NewSet(iv(inf, oi(-5))), 1},
		{"above", interval.NewSet(iv(oi(5), inf)), 1},
		{"all", interval.NewSet(iv(inf, inf)), 1},
		{"in-list", interval.NewSet(interval.Point(vector.NewInt(0)), interval.Point(vector.NewInt(2)), interval.Point(vector.NewInt(7))), 3},
		{"or-union", interval.NewSet(iv(inf, oi(50)), iv(ci(900), oi(950))), 2},
		{"excluded point", interval.NewSet(iv(inf, oi(3)), iv(oi(3), inf)), 2},
		{"open at MaxInt64", interval.NewSet(iv(oi(math.MaxInt64), inf)), 0},
		{"open at MinInt64", interval.NewSet(iv(inf, oi(math.MinInt64))), 0},
		{"closed at MaxInt64", interval.NewSet(iv(ci(math.MaxInt64-1), ci(math.MaxInt64))), 1},
		{"closed at MinInt64", interval.NewSet(iv(ci(math.MinInt64), oi(math.MinInt64+2))), 1},
		{"timestamp bounds", interval.NewSet(iv(ts(-20), ts(20)), iv(ts(100), inf)), 2},
		{"mixed int and timestamp", interval.NewSet(iv(ts(-20), oi(20))), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spans, ok := compileIntSet(c.set)
			if !ok || len(spans) != c.spans {
				t.Fatalf("compiled to %v (ok %v), want %d spans", spans, ok, c.spans)
			}
			checkIntMembership(t, c.set, intProbes())
		})
	}
}

// TestIntMembershipFallback asserts sets with non-integral bounds and
// non-integral columns keep Set.Contains, and still route exactly.
func TestIntMembershipFallback(t *testing.T) {
	floats := interval.NewSet(interval.Interval{Lo: interval.Closed(vector.NewFloat(-2.5)), Hi: interval.Open(vector.NewFloat(7.5))})
	strs := interval.NewSet(interval.Interval{Lo: interval.Closed(vector.NewStr("b")), Hi: interval.Closed(vector.NewStr("m"))})
	mixed := interval.NewSet(interval.Interval{Lo: interval.Closed(vector.NewInt(0)), Hi: interval.Open(vector.NewFloat(7.5))})
	for _, set := range []interval.Set{floats, strs, mixed} {
		if _, ok := compileIntSet(set); ok {
			t.Fatalf("%s compiled to int spans; want the Set.Contains fallback", set)
		}
		r, err := NewRangeRouter("v", 1, set)
		if err != nil {
			t.Fatal(err)
		}
		if r.intsOf(vector.FromInts([]int64{1})) != nil {
			t.Fatalf("%s: int column takes the typed path", set)
		}
	}
	probes := intProbes()
	r, err := NewHashPrunedRouter("v", "v", 2, mixed)
	if err != nil {
		t.Fatal(err)
	}
	col := vector.FromInts(probes)
	sels, err := r.RouteInto(bat.NewRelation([]string{"v"}, []*vector.Vector{col}), make([][]int32, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sels[2] {
		if mixed.Contains(col.Get(int(i))) {
			t.Fatalf("%d pruned although %s contains it", probes[i], mixed)
		}
	}
	if want := 8; len(probes)-len(sels[2]) != want { // 0..7
		t.Fatalf("%d probes routed to partitions, want %d", len(probes)-len(sels[2]), want)
	}
	// An integral set over a float column also falls back.
	ints, err := NewRangeRouter("v", 1, interval.NewSet(interval.Interval{Lo: interval.Closed(vector.NewInt(0)), Hi: interval.Closed(vector.NewInt(3))}))
	if err != nil {
		t.Fatal(err)
	}
	fcol := vector.FromFloats([]float64{-0.5, 0, 1.5, 3, 3.5})
	if ints.intsOf(fcol) != nil {
		t.Fatal("float column takes the typed path")
	}
	sels, err = ints.RouteInto(bat.NewRelation([]string{"v"}, []*vector.Vector{fcol}), make([][]int32, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := sels[0]; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("float column matched positions %v, want [1 2 3]", got)
	}
}

// fuzzVal decodes one fuzz byte into a bound value: the int64 edges for
// four reserved bytes, a small signed value otherwise (so intervals
// overlap, touch and collapse often).
func fuzzVal(b byte) int64 {
	switch b {
	case 0x80:
		return math.MinInt64
	case 0x81:
		return math.MinInt64 + 1
	case 0x7e:
		return math.MaxInt64 - 1
	case 0x7f:
		return math.MaxInt64
	}
	return int64(int8(b))
}

// FuzzIntMembership compares compiled int64 spans against
// interval.Set.Contains over random integral sets. spec is read in
// 3-byte chunks, one interval each: a flags byte (bit 0: low unbounded,
// 1: low open, 2: high unbounded, 3: high open, 4/5: low/high bound is a
// Timestamp) and the two bound values (see fuzzVal).
func FuzzIntMembership(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec []byte, probe int64) {
		var ivs []interval.Interval
		for i := 0; i+3 <= len(spec) && len(ivs) < 16; i += 3 {
			flags := spec[i]
			kind := func(bit byte) vector.Type {
				if flags&bit != 0 {
					return vector.Timestamp
				}
				return vector.Int
			}
			lo := intBound(kind(16), fuzzVal(spec[i+1]), flags&2 != 0)
			if flags&1 != 0 {
				lo = interval.Unbounded()
			}
			hi := intBound(kind(32), fuzzVal(spec[i+2]), flags&8 != 0)
			if flags&4 != 0 {
				hi = interval.Unbounded()
			}
			ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
		}
		checkIntMembership(t, interval.NewSet(ivs...), intProbes(probe, probe-1, probe+1))
	})
}

// TestPartitionedDiscardDropsPruned asserts discard mode on both append
// paths — Append (route-at-ingest) and AppendLocked (the core splitter):
// no catch-all exists, pruned tuples are counted and reported as
// accepted, and the partitions hold exactly the matching tuples.
func TestPartitionedDiscardDropsPruned(t *testing.T) {
	names, types := []string{"k", "v"}, []vector.Type{vector.Int, vector.Int}
	build := map[string]func() (*PartitionedBasket, error){
		"range": func() (*PartitionedBasket, error) {
			return NewPartitionedRange("s", names, types, 4, "v", rangeSet(0, 100), true)
		},
		"hash+prune": func() (*PartitionedBasket, error) {
			return NewPartitionedHashPruned("s", names, types, 4, "k", "v", rangeSet(0, 100), true)
		},
	}
	for name, mk := range build {
		for _, locked := range []bool{false, true} {
			pb, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if pb.CatchAll() != nil || len(pb.Destinations()) != 4 {
				t.Fatalf("%s: discard mode built a catch-all (destinations %d)", name, len(pb.Destinations()))
			}
			rel := bat.NewEmptyRelation(names, types)
			for i := int64(-50); i < 250; i++ {
				rel.AppendRow(vector.NewInt(i%7), vector.NewInt(i))
			}
			var n int
			if locked {
				for _, p := range pb.Parts() {
					p.Lock()
				}
				n, err = pb.AppendLocked(rel)
				for _, p := range pb.Parts() {
					p.Unlock()
				}
			} else {
				n, err = pb.Append(rel)
			}
			if err != nil {
				t.Fatal(err)
			}
			held := 0
			for _, p := range pb.Parts() {
				held += p.Len()
			}
			if n != 300 || held != 100 || pb.Pruned() != 200 {
				t.Fatalf("%s (locked %v): accepted %d, partitions hold %d, pruned %d; want 300, 100, 200",
					name, locked, n, held, pb.Pruned())
			}
		}
	}
	// Park mode counts the catch-all's tuples the same way.
	pb, err := NewPartitionedRange("s", names, types, 4, "v", rangeSet(0, 100), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Append(intRelKV(1, -1, 1, 5, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if pb.Pruned() != 2 || pb.CatchAll().Len() != 2 {
		t.Fatalf("park mode: pruned %d, catch-all holds %d; want 2, 2", pb.Pruned(), pb.CatchAll().Len())
	}
}

// routeBatch builds a 256-tuple (k, v) batch with v spread over
// [0,300), so about a third of it matches rangeSet(0, 100).
func routeBatch() *bat.Relation {
	ks := make([]int64, 256)
	vs := make([]int64, 256)
	for i := range ks {
		ks[i] = int64(i % 13)
		vs[i] = int64(i * 7 % 300)
	}
	return bat.NewRelation([]string{"k", "v"}, []*vector.Vector{vector.FromInts(ks), vector.FromInts(vs)})
}

// TestDiscardAppendAllocs guards the discard path: a warm
// PartitionedBasket.Append of a 256-tuple batch, partitions drained by
// exchange between runs, allocates nothing.
func TestDiscardAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	pb, err := NewPartitionedHashPruned("s", []string{"k", "v"}, []vector.Type{vector.Int, vector.Int},
		4, "k", "v", rangeSet(0, 100), true)
	if err != nil {
		t.Fatal(err)
	}
	batch := routeBatch()
	spares := make([]*bat.Relation, len(pb.Parts()))
	cycle := func() {
		if _, err := pb.Append(batch); err != nil {
			t.Fatal(err)
		}
		for i, p := range pb.Parts() {
			p.Lock()
			spares[i] = p.ExchangeLocked(spares[i])
			p.Unlock()
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Fatalf("warm discard-mode Append allocates %.1f per run, want 0", allocs)
	}
}

// BenchmarkRouteInto measures the route layer alone over an int column:
// hash routing with a prune set, and range routing.
func BenchmarkRouteInto(b *testing.B) {
	batch := routeBatch()
	routers := map[string]func() (*Router, error){
		"hash+prune": func() (*Router, error) { return NewHashPrunedRouter("k", "v", 4, rangeSet(0, 100)) },
		"range":      func() (*Router, error) { return NewRangeRouter("v", 4, rangeSet(0, 100)) },
	}
	for _, name := range []string{"hash+prune", "range"} {
		b.Run(name, func(b *testing.B) {
			r, err := routers[name]()
			if err != nil {
				b.Fatal(err)
			}
			sels := make([][]int32, r.NumDestinations())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sels, err = r.RouteInto(batch, sels); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch.Len()), "ns/tuple")
		})
	}
}
