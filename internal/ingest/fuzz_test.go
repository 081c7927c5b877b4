package ingest

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// fuzzSchema maps selector bytes onto a stream schema of 1–8 columns, one
// wire-encodable type (Int, Float, Bool, Str, Timestamp) per byte.
func fuzzSchema(sel []byte) ([]string, []vector.Type) {
	if len(sel) == 0 {
		sel = []byte{0}
	}
	if len(sel) > 8 {
		sel = sel[:8]
	}
	names := make([]string, len(sel))
	types := make([]vector.Type, len(sel))
	for i, b := range sel {
		names[i] = fmt.Sprintf("c%d", i)
		types[i] = vector.Type(b % 5)
	}
	return names, types
}

// sameValue compares two decoded values bit for bit, so NaN payloads and
// -0.0 round-trip checks are exact.
func sameValue(a, b vector.Value) bool {
	if a.Kind == vector.Float && b.Kind == vector.Float {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

// FuzzDecodeFrameInto feeds arbitrary bytes to the binary frame decoder
// under an arbitrary stream schema. Every frame must decode or be
// rejected, never panic; a rejected frame leaves the relation untouched;
// and a decoded frame re-encoded with AppendFrame decodes to the same
// rows. The committed corpus (testdata/fuzz/FuzzDecodeFrameInto) holds
// valid frames of every column type and the truncated, bad-CRC,
// bad-magic, bad-version and schema-mismatch cases of wire_test.go.
func FuzzDecodeFrameInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, schema []byte, data []byte) {
		names, types := fuzzSchema(schema)
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)), types)
		rel := bat.NewEmptyRelation(names, types)
		for {
			rel.Clear()
			n, err := fr.DecodeFrameInto(rel)
			if err != nil {
				if rel.Len() != 0 {
					t.Fatalf("rejected frame (%v) appended %d tuples", err, rel.Len())
				}
				return
			}
			if rel.Len() != n {
				t.Fatalf("decoded %d tuples, relation holds %d", n, rel.Len())
			}
			wire, err := AppendFrame(nil, rel)
			if err != nil {
				t.Fatalf("re-encoding a decoded frame: %v", err)
			}
			again := bat.NewEmptyRelation(names, types)
			m, err := NewFrameReader(bufio.NewReader(bytes.NewReader(wire)), types).DecodeFrameInto(again)
			if err != nil || m != n {
				t.Fatalf("re-encoded frame decodes to %d tuples (%v), want %d", m, err, n)
			}
			for r := 0; r < n; r++ {
				for c := range types {
					if a, b := rel.Col(c).Get(r), again.Col(c).Get(r); !sameValue(a, b) {
						t.Fatalf("row %d col %d changed across the round trip: %v vs %v", r, c, a, b)
					}
				}
			}
		}
	})
}
