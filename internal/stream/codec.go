// Package stream implements the outbound periphery of the DataCell —
// emitters that deliver result tuples to subscribed clients, the
// reconnecting dialer and the trace replayer — and the textual tuple
// codec. The interchange format is purposely simple — flat relational
// tuples in a textual, pipe-separated form — matching the paper's adapter
// design. The inbound periphery, the receptors, lives in internal/ingest,
// which decodes textual connections with this package's codec.
package stream

import (
	"fmt"
	"strings"

	"datacell/internal/bat"
	"datacell/internal/vector"
)

// FieldSep separates attribute values in the textual tuple format.
const FieldSep = "|"

// EncodeRow renders one tuple in the flat textual interchange format.
func EncodeRow(vals []vector.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, FieldSep)
}

// DecodeRow parses one textual tuple according to the given types.
func DecodeRow(line string, types []vector.Type) ([]vector.Value, error) {
	vals := make([]vector.Value, len(types))
	if err := decodeFields(line, types, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// decodeFields parses the pipe-separated fields of line into vals
// (len(vals) == len(types)) without allocating: fields are substrings of
// line and every value is validated before any is considered accepted.
func decodeFields(line string, types []vector.Type, vals []vector.Value) error {
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return fmt.Errorf("stream: empty tuple")
	}
	rest := line
	for i := range types {
		var field string
		k := strings.IndexByte(rest, FieldSep[0])
		switch {
		case k < 0 && i == len(types)-1:
			field = rest
			rest = ""
		case k < 0:
			return fmt.Errorf("stream: tuple has %d fields, want %d", i+1, len(types))
		case i == len(types)-1:
			return fmt.Errorf("stream: tuple has more than %d fields", len(types))
		default:
			field, rest = rest[:k], rest[k+1:]
		}
		v, err := vector.ParseValue(types[i], field)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return nil
}

// DecodeRowInto parses one textual tuple straight into the columns of rel
// (whose schema must match types), appending one row with typed column
// appends — no per-row slice and no boxing that outlives the call. The
// row is validated in full before anything is appended, so a malformed
// line leaves rel untouched.
func DecodeRowInto(line string, types []vector.Type, rel *bat.Relation) error {
	var buf [16]vector.Value
	vals := buf[:]
	if len(types) > len(vals) {
		vals = make([]vector.Value, len(types))
	} else {
		vals = vals[:len(types)]
	}
	if err := decodeFields(line, types, vals); err != nil {
		return err
	}
	for i, v := range vals {
		rel.Col(i).Append(v)
	}
	return nil
}

// EncodeRelation renders every tuple of rel, one line each, restricted to
// its first ncols columns (use rel.NumCols() for all).
func EncodeRelation(rel *bat.Relation, ncols int) []string {
	if ncols <= 0 || ncols > rel.NumCols() {
		ncols = rel.NumCols()
	}
	out := make([]string, rel.Len())
	row := make([]vector.Value, ncols)
	for i := 0; i < rel.Len(); i++ {
		for j := 0; j < ncols; j++ {
			row[j] = rel.Col(j).Get(i)
		}
		out[i] = EncodeRow(row)
	}
	return out
}
