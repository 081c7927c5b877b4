package datacell

import (
	"fmt"
	"math/rand"
	"time"
)

// PruneResult is one point of the partition-pruning sweep
// (`microbench -fig prune`): a sargable multi-query workload at one
// (strategy, selectivity, parallelism) setting, with the routing
// counters that separate work reduction from mere placement.
type PruneResult struct {
	Strategy    Strategy
	Parallelism int
	Queries     int
	Tuples      int
	Selectivity float64 // fraction of the value domain the queries cover
	Batch       int
	Elapsed     time.Duration
	Throughput  float64 // stream tuples per second, feed to drain
	Results     int     // result tuples across all queries
	Partitions  int     // partitions the group wiring actually uses
	Routing     string  // installed routing ("range(v)", "round-robin", …)
	// PerClone is the average number of stream tuples routed into each
	// scanned partition of each partitioned wiring — the input a single
	// query clone actually sees. Under blind round-robin placement this
	// would be PlacementPerClone; under range routing it shrinks by the
	// workload's selectivity, because non-matching tuples go to the
	// catch-all instead.
	PerClone          float64
	PlacementPerClone float64 // tuples/P: what blind placement would deliver
	Pruned            int64   // tuples no clone saw: discarded at routing or parked in catch-alls
}

// RunPrune measures partition pruning end to end: q adjacent
// predicate-window range queries jointly covering the fraction
// `selectivity` of a uniform integer stream, wired at the given strategy
// and parallelism. The plan layer derives each query's sargable interval,
// the group routes tuples by range (union of the members' intervals under
// shared/partial wiring, per-member interval under separate wiring) and
// parks tuples outside every interval in the catch-all, so each clone
// fires over a strict subset of the stream: PerClone ≈ selectivity ×
// PlacementPerClone, the work reduction the paper's P-way split alone
// cannot deliver.
func RunPrune(strategy Strategy, parallelism, q, tuples int, selectivity float64, batch int, seed int64) (PruneResult, error) {
	if selectivity <= 0 || selectivity > 1 {
		return PruneResult{}, fmt.Errorf("datacell: prune selectivity must be in (0,1], got %g", selectivity)
	}
	eng := New(WithStrategy(strategy), WithParallelism(parallelism))
	defer eng.Stop()
	if err := eng.Err(); err != nil {
		return PruneResult{}, err
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		return PruneResult{}, err
	}
	const domain = int64(100_000)
	span := int64(selectivity * float64(domain))
	if span < int64(q) {
		span = int64(q)
	}
	width := span / int64(q)
	queries := make([]NamedQuery, q)
	for i := 0; i < q; i++ {
		lo := int64(i) * width
		hi := lo + width
		queries[i] = NamedQuery{
			Name: fmt.Sprintf("prune_%d", i),
			SQL:  fmt.Sprintf(`select t.v from [select * from s where v >= %d and v < %d] t`, lo, hi),
		}
	}
	if err := eng.RegisterQueries(queries); err != nil {
		return PruneResult{}, err
	}
	if err := eng.Start(); err != nil {
		return PruneResult{}, err
	}
	if batch < 1 {
		batch = tuples
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, 0, batch)
	start := time.Now()
	for fed := 0; fed < tuples; {
		n := min(batch, tuples-fed)
		rows = rows[:0]
		for i := 0; i < n; i++ {
			rows = append(rows, Row{rng.Int63n(domain)})
		}
		if err := eng.Append("s", rows...); err != nil {
			return PruneResult{}, err
		}
		fed += n
	}
	if !eng.Drain(120 * time.Second) {
		return PruneResult{}, fmt.Errorf("datacell: prune run (%s, sel=%g, P=%d) did not drain", strategy, selectivity, parallelism)
	}
	elapsed := time.Since(start)
	res := PruneResult{
		Strategy:          strategy,
		Parallelism:       parallelism,
		Queries:           q,
		Tuples:            tuples,
		Selectivity:       selectivity,
		Batch:             batch,
		Elapsed:           elapsed,
		Throughput:        float64(tuples) / elapsed.Seconds(),
		Partitions:        1,
		PerClone:          float64(tuples),
		PlacementPerClone: float64(tuples),
	}
	for i := 0; i < q; i++ {
		out, err := eng.Out(fmt.Sprintf("prune_%d", i))
		if err != nil {
			return PruneResult{}, err
		}
		res.Results += out.Len()
	}
	for _, g := range eng.Snapshot().Groups {
		if g.Partitions > res.Partitions {
			res.Partitions = g.Partitions
		}
		res.Routing = g.Routing
		res.Pruned += g.Pruned
		if g.Wirings > 0 {
			res.PerClone = float64(g.RoutedParts) / float64(g.Wirings*g.Partitions)
			res.PlacementPerClone = float64(tuples) / float64(g.Partitions)
		}
	}
	return res, nil
}
