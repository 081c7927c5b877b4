package stream

import (
	"testing"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// TestDecodeRowIntoMatchesDecodeRow checks the typed decode path against
// the boxed one, including its all-or-nothing behaviour on malformed
// lines.
func TestDecodeRowIntoMatchesDecodeRow(t *testing.T) {
	types := []vector.Type{vector.Int, vector.Float, vector.Bool, vector.Str}
	names := []string{"a", "b", "c", "d"}
	good := []string{
		"1|2.5|true|hello",
		"-7|0|false|",
		"0|1e3|true|with spaces\r\n",
	}
	bad := []string{
		"",
		"1|2.5|true",          // too few fields
		"1|2.5|true|x|extra",  // too many fields
		"oops|2.5|true|hello", // unparsable int
	}
	rel := bat.NewEmptyRelation(names, types)
	for _, line := range good {
		vals, err := DecodeRow(line, types)
		if err != nil {
			t.Fatalf("DecodeRow(%q): %v", line, err)
		}
		before := rel.Len()
		if err := DecodeRowInto(line, types, rel); err != nil {
			t.Fatalf("DecodeRowInto(%q): %v", line, err)
		}
		for i, v := range vals {
			if !rel.Col(i).Get(before).Equal(v) {
				t.Fatalf("DecodeRowInto(%q) col %d = %v, want %v", line, i, rel.Col(i).Get(before), v)
			}
		}
	}
	for _, line := range bad {
		before := rel.Len()
		if err := DecodeRowInto(line, types, rel); err == nil {
			t.Fatalf("DecodeRowInto(%q) should fail", line)
		}
		if rel.Len() != before {
			t.Fatalf("DecodeRowInto(%q) left a partial row", line)
		}
		for i := 0; i < rel.NumCols(); i++ {
			if rel.Col(i).Len() != before {
				t.Fatalf("DecodeRowInto(%q) misaligned column %d", line, i)
			}
		}
	}
}
