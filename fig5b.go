package datacell

import (
	"fmt"
	"math/rand"
	"time"
)

// Fig5bResult is one point of the engine-level Figure 5b sweep: the time
// to push one batch of tuples through q continuous queries registered via
// the public SQL API under one multi-query processing strategy.
type Fig5bResult struct {
	Strategy Strategy
	Queries  int
	Tuples   int
	Elapsed  time.Duration // processing time of the batch (RunSync)
	Results  int           // result tuples across all queries
	// StreamAppended counts tuples ingested by the stream basket itself —
	// always one append per arriving tuple.
	StreamAppended int64
	// ReplicaAppended counts tuples copied into per-query private baskets:
	// about Queries×Tuples under the separate strategy, 0 under shared and
	// partial, where the queries work on the stream basket directly.
	ReplicaAppended int64
}

// RunFig5b reproduces the paper's Figure 5b experiment through the public
// engine API: q continuous queries with disjoint 10-unit predicate
// windows are registered over one stream under the given strategy, a
// batch of `tuples` uniform random tuples is appended, and the engine is
// drained synchronously. The same experiment hand-wired at the kernel
// level lives in internal/microbench.RunStrategySweep.
func RunFig5b(strategy Strategy, q, tuples int, seed int64) (Fig5bResult, error) {
	eng := New(WithStrategy(strategy))
	if err := eng.Err(); err != nil {
		return Fig5bResult{}, err
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		return Fig5bResult{}, err
	}
	const width = 10
	domain := int64(10_000)
	if int64(q)*width > domain {
		domain = int64(q) * width
	}
	queries := make([]NamedQuery, q)
	for i := 0; i < q; i++ {
		lo := int64(i) * width
		hi := lo + width
		queries[i] = NamedQuery{
			Name: fmt.Sprintf("fig5b_%d", i),
			SQL:  fmt.Sprintf(`select t.v from [select * from s where v >= %d and v < %d] t`, lo, hi),
		}
	}
	if err := eng.RegisterQueries(queries); err != nil {
		return Fig5bResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, tuples)
	for i := range rows {
		rows[i] = Row{rng.Int63n(domain)}
	}
	if err := eng.Append("s", rows...); err != nil {
		return Fig5bResult{}, err
	}
	start := time.Now()
	if err := eng.RunSync(); err != nil {
		return Fig5bResult{}, err
	}
	res := Fig5bResult{
		Strategy:       strategy,
		Queries:        q,
		Tuples:         tuples,
		Elapsed:        time.Since(start),
		StreamAppended: eng.Catalog().Basket("s").Stats().Appended,
	}
	for i := 0; i < q; i++ {
		out, err := eng.Out(fmt.Sprintf("fig5b_%d", i))
		if err != nil {
			return Fig5bResult{}, err
		}
		res.Results += out.Len()
	}
	for _, g := range eng.Snapshot().Groups {
		res.ReplicaAppended += g.ReplicaAppended
	}
	return res, nil
}
