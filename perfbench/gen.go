package main

import (
	"math"
	"time"

	"datacell/internal/bat"
	"datacell/internal/ingest"
	"datacell/internal/vector"
)

// Input generation. Every field of tuple k is a pure function of
// (seed, k), computed by a counter-based mixer rather than a stateful
// PRNG: any frame can be rebuilt in isolation, the checkers recompute
// the reference from the same functions, and the same seed always yields
// byte-identical frames. (internal/lroad.Generator is not used: it walks
// a Go map, so one seed gives a different stream on every run.)

const (
	frameTuples = 256 // tuples per wire frame, and the receptors' BatchSize
	conns       = 2   // sender connections, one per receptor shard
	// stsStep separates the steps in the sts column: sts = step*stsStep +
	// the frame's due offset from the step origin in microseconds.
	stsStep = int64(1e12)
	maxWarm = 2 * time.Second
)

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th independent 64-bit draw for tuple k.
func draw(seed uint64, k int64, i uint64) uint64 {
	return mix64(seed ^ mix64(uint64(k)*8+i))
}

// fanV is the v column of the fan-out stream shape: uniform in [0,1000).
func fanV(seed uint64, k int64) int64 { return int64(draw(seed, k, 0) % 1000) }

// lrTuple is one Linear Road-style report.
type lrTuple struct {
	car, xway, dir, seg, spd, typ, time int64
}

const (
	lrSegments  = 100
	lrPerSecond = 2000 // reports per simulated second, so time/60 advances every 120k tuples
)

// lrFields derives report k. Segment popularity is skewed (seg = 100·u³
// puts half the traffic on the lowest 13 segments), about 1 in 200
// position reports is a stopped car, and 2% of reports are balance
// requests (typ 2).
func lrFields(seed uint64, k int64) lrTuple {
	a, b := draw(seed, k, 1), draw(seed, k, 2)
	u := float64(a>>11) / (1 << 53)
	t := lrTuple{
		car:  int64(b % 20000),
		xway: int64((b >> 20) % 2),
		dir:  int64((b >> 24) % 2),
		seg:  int64(u * u * u * lrSegments),
		spd:  10 + int64((b>>32)%90),
		time: k / lrPerSecond,
	}
	switch r := (b >> 48) % 1000; {
	case r < 20:
		t.typ = 2
	case r < 25:
		t.spd = 0
	}
	return t
}

// schema is a stream's user columns.
type schema struct {
	names []string
	types []vector.Type
}

func (s schema) ddl(stream string) string {
	q := "create basket " + stream + " ("
	for i, n := range s.names {
		if i > 0 {
			q += ", "
		}
		q += n + " int"
	}
	return q + ")"
}

// intSchema is a schema of int columns.
func intSchema(names ...string) schema {
	s := schema{names: names, types: make([]vector.Type, len(names))}
	for i := range s.types {
		s.types[i] = vector.Int
	}
	return s
}

var (
	fanSchema = intSchema("k", "v", "sts")
	lrSchema  = intSchema("k", "car", "xway", "dir", "seg", "spd", "typ", "time", "sts")
)

// fillFan appends tuples k0..k0+n-1 of the fan-out shape to rel.
func fillFan(rel *bat.Relation, seed uint64, k0 int64, n int, sts int64) {
	kc, vc, sc := rel.Col(0), rel.Col(1), rel.Col(2)
	for k := k0; k < k0+int64(n); k++ {
		kc.Append(vector.NewInt(k))
		vc.Append(vector.NewInt(fanV(seed, k)))
		sc.Append(vector.NewInt(sts))
	}
}

// fillLR appends reports k0..k0+n-1 to rel.
func fillLR(rel *bat.Relation, seed uint64, k0 int64, n int, sts int64) {
	for k := k0; k < k0+int64(n); k++ {
		t := lrFields(seed, k)
		for i, x := range [...]int64{k, t.car, t.xway, t.dir, t.seg, t.spd, t.typ, t.time, sts} {
			rel.Col(i).Append(vector.NewInt(x))
		}
	}
}

// step is one fixed-rate stage of a run. Frame g of the step (counted
// across both connections) carries keys keyBase+g·frameTuples onwards,
// goes out on connection g%conns, and is due g·frameTuples/rate after the
// step origin; all its tuples carry that due time in sts.
type step struct {
	name     string
	idx      int
	rate     float64 // offered tuples per second
	frames   int64
	keyBase  int64
	overload bool // a fixed quota sent as fast as it is due; unsent tuples are not failures
	// warm is the step's warm-up: tuples due earlier are sent and checked
	// but not measured, so the runtime and the engine settle at the new
	// rate (heap growth, GC pacing, threads) before timing starts.
	warm time.Duration
}

func (s step) tuples() int64 { return s.frames * frameTuples }
func (s step) keyEnd() int64 { return s.keyBase + s.tuples() }

// dueOffset is frame g's due time relative to the step origin.
func (s step) dueOffset(g int64) time.Duration {
	return time.Duration(float64(g) * frameTuples / s.rate * float64(time.Second))
}

// length is the step's scheduled length: every frame is due before it.
func (s step) length() time.Duration { return s.dueOffset(s.frames) }

// firstAt is the first frame due at or after offset d.
func (s step) firstAt(d time.Duration) int64 {
	g := int64(math.Ceil(d.Seconds() * s.rate / frameTuples))
	for g > 0 && s.dueOffset(g-1) >= d {
		g--
	}
	for g < s.frames && s.dueOffset(g) < d {
		g++
	}
	return g
}

// measured is the number of tuples due after the warm-up.
func (s step) measured() int64 { return (s.frames - s.firstAt(s.warm)) * frameTuples }

func (s step) sts(g int64) int64 {
	return int64(s.idx)*stsStep + s.dueOffset(g).Microseconds()
}

// rates are one workload's offered rates in tuples per second.
type rates struct{ light, nominal, overload float64 }

// plan lays out the three steps of a run of the given length: light for
// 20% of it, nominal for 60%, and an overload quota due over 8% (which
// takes about three times that to absorb, since it is offered at three
// times the peak). The fixed-rate steps measure after a warm-up of 15%
// of their length, at most two seconds.
func plan(r rates, seconds float64) []step {
	steps := []step{
		{name: "light", rate: r.light},
		{name: "nominal", rate: r.nominal},
		{name: "overload", rate: r.overload, overload: true},
	}
	shares := []float64{0.20, 0.60, 0.08}
	var key int64
	for i := range steps {
		s := &steps[i]
		s.idx = i
		s.keyBase = key
		s.frames = int64(s.rate*seconds*shares[i]/frameTuples) / conns * conns
		if s.frames < conns {
			s.frames = conns
		}
		if !s.overload {
			s.warm = min(maxWarm, s.length()*15/100)
		}
		key = s.keyEnd()
	}
	return steps
}

// stepOf locates key k: its step and frame within the step.
func stepOf(steps []step, k int64) (si int, g int64, ok bool) {
	for i, s := range steps {
		if k >= s.keyBase && k < s.keyEnd() {
			return i, (k - s.keyBase) / frameTuples, true
		}
	}
	return 0, 0, false
}

// frameEncoder builds and encodes one workload's frames, reusing its
// relation and buffer.
type frameEncoder struct {
	seed uint64
	fill func(rel *bat.Relation, seed uint64, k0 int64, n int, sts int64)
	rel  *bat.Relation
	buf  []byte
}

func newFrameEncoder(w *workload, seed uint64) *frameEncoder {
	return &frameEncoder{seed: seed, fill: w.fill, rel: bat.NewEmptyRelation(w.schema.names, w.schema.types)}
}

// encode returns frame g of step s as wire bytes, valid until the next call.
func (fe *frameEncoder) encode(s step, g int64) ([]byte, error) {
	fe.rel.Clear()
	fe.fill(fe.rel, fe.seed, s.keyBase+g*frameTuples, frameTuples, s.sts(g))
	buf, err := ingest.AppendFrame(fe.buf[:0], fe.rel)
	fe.buf = buf
	return buf, err
}
