package plan

import (
	"strings"

	"datacell/internal/expr"
	"datacell/internal/interval"
	"datacell/internal/vector"
)

// Sargable-predicate analysis for partition pruning. For a row-local
// predicate-window select, the analysis derives per stream column a
// *necessary condition*: an interval set the column value of any matching
// tuple must fall into. pred(t) ⟹ t.col ∈ set, never the converse — the
// clone still evaluates the full predicate, so routing may send it false
// positives but must never hide a potential match. Tuples outside every
// set can match nothing and never reach a clone (the router discards them
// or parks them in a catch-all, see Verdict.Discard); that is what turns
// a P-way split into work reduction.

// sargableSets extracts the per-column necessary-condition interval sets
// of predicate x. types maps the stream's user columns (lower-case,
// unqualified) to their declared types; comparisons against constants of
// an incompatible class (string constant on a numeric column, …) are
// dropped rather than guessed at. A nil/empty result means the predicate
// constrains no column.
func sargableSets(x expr.Expr, types map[string]vector.Type) map[string]interval.Set {
	switch n := x.(type) {
	case nil:
		return nil
	case *expr.Bin:
		switch n.Op {
		case expr.And:
			// x∧y true implies both hold: merge, intersecting sets on
			// columns both sides constrain.
			return andSets(sargableSets(n.L, types), sargableSets(n.R, types))
		case expr.Or:
			// x∨y true implies at least one holds: only columns both
			// sides constrain stay necessary, with the union set.
			return orSets(sargableSets(n.L, types), sargableSets(n.R, types))
		case expr.Eq, expr.Lt, expr.Le, expr.Gt, expr.Ge:
			col, val, op, ok := colConstCmpExpr(n, types)
			if !ok {
				return nil
			}
			return map[string]interval.Set{col: cmpSet(op, val)}
		}
		return nil
	case *expr.Between:
		if n.Negate {
			return nil
		}
		col, ok := streamCol(n.E, types)
		if !ok {
			return nil
		}
		lo, ok1 := expr.ConstValue(n.Lo)
		hi, ok2 := expr.ConstValue(n.Hi)
		if !ok1 || !ok2 || !classOK(types[col], lo) || !classOK(types[col], hi) {
			return nil
		}
		return map[string]interval.Set{col: interval.NewSet(
			interval.Interval{Lo: interval.Closed(lo), Hi: interval.Closed(hi)})}
	case *expr.InList:
		if n.Negate {
			return nil
		}
		col, ok := streamCol(n.E, types)
		if !ok {
			return nil
		}
		ivs := make([]interval.Interval, 0, len(n.Vals))
		for _, v := range n.Vals {
			if !classOK(types[col], v) {
				return nil
			}
			ivs = append(ivs, interval.Point(v))
		}
		return map[string]interval.Set{col: interval.NewSet(ivs...)}
	case *expr.Col:
		// A bare boolean column used as the predicate: col ∈ {true}.
		col, ok := streamCol(n, types)
		if !ok || types[col] != vector.Bool {
			return nil
		}
		return map[string]interval.Set{col: interval.NewSet(interval.Point(vector.NewBool(true)))}
	}
	return nil
}

// cmpSet maps `col op val` to the value set satisfying it.
func cmpSet(op expr.BinOp, val vector.Value) interval.Set {
	switch op {
	case expr.Eq:
		return interval.NewSet(interval.Point(val))
	case expr.Lt:
		return interval.NewSet(interval.Interval{Lo: interval.Unbounded(), Hi: interval.Open(val)})
	case expr.Le:
		return interval.NewSet(interval.Interval{Lo: interval.Unbounded(), Hi: interval.Closed(val)})
	case expr.Gt:
		return interval.NewSet(interval.Interval{Lo: interval.Open(val), Hi: interval.Unbounded()})
	default: // Ge
		return interval.NewSet(interval.Interval{Lo: interval.Closed(val), Hi: interval.Unbounded()})
	}
}

// colConstCmpExpr recognises col-op-const and const-op-col comparisons
// over a stream column, flipping the operator in the latter case.
func colConstCmpExpr(n *expr.Bin, types map[string]vector.Type) (string, vector.Value, expr.BinOp, bool) {
	if col, ok := streamCol(n.L, types); ok {
		if val, ok2 := expr.ConstValue(n.R); ok2 && classOK(types[col], val) {
			return col, val, n.Op, true
		}
	}
	if col, ok := streamCol(n.R, types); ok {
		if val, ok2 := expr.ConstValue(n.L); ok2 && classOK(types[col], val) {
			op := n.Op
			switch n.Op {
			case expr.Lt:
				op = expr.Gt
			case expr.Le:
				op = expr.Ge
			case expr.Gt:
				op = expr.Lt
			case expr.Ge:
				op = expr.Le
			}
			return col, val, op, true
		}
	}
	return "", vector.Value{}, 0, false
}

// streamCol resolves an expression to a stream column name (qualifier
// stripped, lower-cased), when it is a plain column reference declared in
// the stream schema.
func streamCol(e expr.Expr, types map[string]vector.Type) (string, bool) {
	c, ok := e.(*expr.Col)
	if !ok {
		return "", false
	}
	name := strings.ToLower(c.Name)
	if k := strings.LastIndexByte(name, '.'); k >= 0 {
		name = name[k+1:]
	}
	_, declared := types[name]
	return name, declared
}

// classOK reports whether a constant's class is comparable with a
// column's declared type (numeric with numeric, string with string, bool
// with bool); mixed-class comparisons are not sargable here.
func classOK(col vector.Type, v vector.Value) bool {
	switch col {
	case vector.Int, vector.Float, vector.Timestamp:
		return v.Kind == vector.Int || v.Kind == vector.Float || v.Kind == vector.Timestamp
	case vector.Str:
		return v.Kind == vector.Str
	case vector.Bool:
		return v.Kind == vector.Bool
	}
	return false
}

// andSets conjoins two per-column maps: columns in both intersect,
// columns in one carry over (the other conjunct only narrows further).
func andSets(a, b map[string]interval.Set) map[string]interval.Set {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[string]interval.Set, len(a)+len(b))
	for c, s := range a {
		out[c] = s
	}
	for c, s := range b {
		if prev, ok := out[c]; ok {
			out[c] = prev.Intersect(s)
		} else {
			out[c] = s
		}
	}
	return out
}

// orSets disjoins two per-column maps: only columns constrained on both
// sides remain necessary, with the union set; a vacuous union (everything)
// is dropped.
func orSets(a, b map[string]interval.Set) map[string]interval.Set {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := map[string]interval.Set{}
	for c, s := range a {
		o, ok := b[c]
		if !ok {
			continue
		}
		u := s.Union(o)
		if u.All() {
			continue
		}
		out[c] = u
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// bestRangeCol picks the routing column among the constrained columns:
// a column whose set is range-sliceable (finite numeric measure) beats a
// merely bounded one beats any constraint; ties break lexicographically
// for determinism. ok is false when no usable column remains.
func bestRangeCol(sets map[string]interval.Set) (string, bool) {
	best, bestRank := "", -1
	for col, s := range sets {
		if s.All() {
			continue
		}
		rank := 0
		if s.Bounded() {
			rank = 1
		}
		if m, ok := s.Measure(); ok && m > 0 {
			rank = 2
		}
		if rank > bestRank || (rank == bestRank && col < best) {
			best, bestRank = col, rank
		}
	}
	return best, bestRank >= 0
}
