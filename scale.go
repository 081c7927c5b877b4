package datacell

import (
	"fmt"
	"math/rand"
	"time"
)

// ScaleResult is one point of the partitioned-execution scaling sweep
// (`microbench -fig scale`): end-to-end throughput of a single-stream,
// multi-query workload at one (strategy, parallelism) setting.
type ScaleResult struct {
	Strategy    Strategy
	Parallelism int
	Queries     int
	Tuples      int
	Batch       int
	Elapsed     time.Duration
	Throughput  float64 // stream tuples per second, feed to drain
	Results     int     // result tuples across all queries
	Partitions  int     // partitions the group wiring actually uses
}

// RunScale measures end-to-end throughput of q continuous range queries
// over one stream at the given parallelism, under the threaded scheduler —
// receptor, splitter, partition clones, merge emitters and the per-
// partition strategy wirings all run as independent threads, the paper's
// architecture scaled over P partitions. The workload is the Figure 5b
// query set (disjoint predicate windows registered through the SQL API);
// tuples arrive in batches of `batch` and the elapsed time spans the first
// append to full quiescence.
//
// Wall-clock scaling with P requires hardware cores: the partitions are
// real OS-scheduled threads, so on an N-core machine throughput grows
// toward min(P, N)× for kernel-bound workloads, while on a single core the
// sweep degenerates to a constant (the work is conserved, only its
// placement changes).
func RunScale(strategy Strategy, parallelism, q, tuples, batch int, seed int64) (ScaleResult, error) {
	eng := New(WithStrategy(strategy), WithParallelism(parallelism))
	defer eng.Stop()
	if err := eng.Err(); err != nil {
		return ScaleResult{}, err
	}
	if _, err := eng.Exec(`create basket s (v int)`); err != nil {
		return ScaleResult{}, err
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
			Name: fmt.Sprintf("scale_%d", i),
			SQL:  fmt.Sprintf(`select t.v from [select * from s where v >= %d and v < %d] t`, lo, hi),
		}
	}
	if err := eng.RegisterQueries(queries); err != nil {
		return ScaleResult{}, err
	}
	if err := eng.Start(); err != nil {
		return ScaleResult{}, err
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
			return ScaleResult{}, err
		}
		fed += n
	}
	if !eng.Drain(120 * time.Second) {
		return ScaleResult{}, fmt.Errorf("datacell: scale run (%s, P=%d) did not drain", strategy, parallelism)
	}
	elapsed := time.Since(start)
	res := ScaleResult{
		Strategy:    strategy,
		Parallelism: parallelism,
		Queries:     q,
		Tuples:      tuples,
		Batch:       batch,
		Elapsed:     elapsed,
		Throughput:  float64(tuples) / elapsed.Seconds(),
		Partitions:  1,
	}
	for i := 0; i < q; i++ {
		out, err := eng.Out(fmt.Sprintf("scale_%d", i))
		if err != nil {
			return ScaleResult{}, err
		}
		res.Results += out.Len()
	}
	for _, g := range eng.Snapshot().Groups {
		if g.Partitions > res.Partitions {
			res.Partitions = g.Partitions
		}
	}
	return res, nil
}
