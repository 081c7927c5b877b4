package stream

import (
	"fmt"
	"testing"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// FuzzDecodeRowInto feeds arbitrary lines to the textual tuple decoder
// under an arbitrary schema of 1–24 columns (one type per selector byte;
// more than 16 columns takes the decoder's heap path). Every line must
// decode or be rejected, never panic; a rejected line leaves the relation
// untouched and a decoded one appends exactly one row. The committed
// corpus (testdata/fuzz/FuzzDecodeRowInto) covers every column type,
// CRLF and padded fields, and the arity and parse failures.
func FuzzDecodeRowInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, schema []byte, line string) {
		if len(schema) == 0 {
			schema = []byte{0}
		}
		if len(schema) > 24 {
			schema = schema[:24]
		}
		names := make([]string, len(schema))
		types := make([]vector.Type, len(schema))
		for i, b := range schema {
			names[i] = fmt.Sprintf("c%d", i)
			types[i] = vector.Type(b % 5)
		}
		rel := bat.NewEmptyRelation(names, types)
		err := DecodeRowInto(line, types, rel)
		want := 1
		if err != nil {
			want = 0
		}
		for c := range types {
			if n := rel.Col(c).Len(); n != want {
				t.Fatalf("column %d holds %d values after decode (err %v), want %d", c, n, err, want)
			}
		}
	})
}
