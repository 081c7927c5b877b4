package datacell

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"datacell/internal/ingest"
	"datacell/internal/vector"
)

// IngestResult is one point of the ingest sweep (`microbench -fig
// ingest`): end-to-end events/second of feeding one stream over loopback
// TCP at one (protocol, shard count, batch size) setting — the
// repository's reproduction of the paper's Figure 4 communication
// pipeline, now with the wire protocol and receptor sharding as the
// swept variables.
type IngestResult struct {
	Binary  bool
	Shards  int
	Batch   int
	Tuples  int
	Elapsed time.Duration
	// EventsPerSec is stream tuples per second from first dial to full
	// kernel quiescence.
	EventsPerSec float64
	Frames       int64 // binary frames decoded (0 under the textual protocol)
	Stalls       int64 // backpressure stalls
	Results      int   // result tuples the query produced
}

// RunIngest measures end-to-end ingest throughput: `tuples` two-column
// tuples are shipped over `shards` concurrent loopback connections —
// binary frames or textual lines of `batch` tuples — into a sharded
// ingest group, consumed by one full-stream continuous query under the
// shared strategy at parallelism = shards (so the sharded runs route at
// ingest straight into partition baskets). The clock spans the first
// dial to full quiescence.
func RunIngest(binary bool, shards, batch, tuples int) (IngestResult, error) {
	if shards < 1 {
		shards = 1
	}
	res := IngestResult{Binary: binary, Shards: shards, Batch: batch, Tuples: tuples}
	eng := New(WithStrategy(StrategyShared), WithParallelism(shards))
	defer eng.Stop()
	if err := eng.Err(); err != nil {
		return res, err
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		return res, err
	}
	if err := eng.RegisterQuery("sink", `select t.v from [select * from s] t where t.v < 10`); err != nil {
		return res, err
	}
	l, err := eng.ListenIngest("s", "127.0.0.1:0", IngestOptions{Shards: shards, BatchSize: batch})
	if err != nil {
		return res, err
	}
	if err := eng.Start(); err != nil {
		return res, err
	}

	addrs := l.Addrs()
	start := time.Now()
	errs := make(chan error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * tuples / shards
		hi := (s + 1) * tuples / shards
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addrs[s%len(addrs)])
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if binary {
				bw := ingest.NewBatchWriter(conn, []string{"k", "v"},
					[]vector.Type{vector.Int, vector.Int}, batch)
				for i := lo; i < hi; i++ {
					if err := bw.WriteRow(vector.NewInt(int64(i)), vector.NewInt(int64(i%1000))); err != nil {
						errs <- err
						return
					}
				}
				errs <- bw.Flush()
				return
			}
			w := bufio.NewWriterSize(conn, 64*1024)
			for i := lo; i < hi; i++ {
				if _, err := fmt.Fprintf(w, "%d|%d\n", i, i%1000); err != nil {
					errs <- err
					return
				}
			}
			errs <- w.Flush()
		}(s, lo, hi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return res, err
		}
	}

	// All bytes are written; wait for the receptors to deliver every
	// tuple, then for the kernel to consume them.
	deadline := time.Now().Add(5 * time.Minute)
	for {
		var ingested int64
		for _, st := range l.Stats() {
			ingested += st.Tuples
		}
		if ingested >= int64(tuples) {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("datacell: ingest run stalled at %d/%d tuples", ingested, tuples)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !eng.Drain(5 * time.Minute) {
		return res, fmt.Errorf("datacell: ingest run did not drain")
	}
	res.Elapsed = time.Since(start)
	res.EventsPerSec = float64(tuples) / res.Elapsed.Seconds()
	for _, st := range l.Stats() {
		res.Frames += st.Frames
		res.Stalls += st.Stalls
	}
	out, err := eng.Out("sink")
	if err != nil {
		return res, err
	}
	res.Results = out.Len()
	return res, nil
}
