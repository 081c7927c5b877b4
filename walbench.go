package datacell

import (
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"datacell/internal/ingest"
	"datacell/internal/vector"
	"datacell/internal/wal"
)

// WALIngestResult is one point of the durability sweep (`microbench -fig
// wal`): end-to-end binary-ingest events/second over loopback TCP with
// the write-ahead log off or on at one group-commit interval — the price
// of durability measured against the same feed the ingest figure uses.
type WALIngestResult struct {
	WAL          bool
	SyncInterval time.Duration
	Shards       int
	Batch        int
	Tuples       int
	Elapsed      time.Duration
	EventsPerSec float64
	Frames       int64 // binary frames decoded (= frames logged when WAL is on)
	WALBytes     int64 // bytes the log wrote across its segment files
	LoggedFrames int   // intact frames a post-run scan finds in the log
}

// RunIngestWAL measures binary ingest throughput with an optional WAL in
// the delivery path: `tuples` two-column tuples over `shards` concurrent
// loopback connections into a sharded ingest group teeing every batch to
// a per-stream log in a temporary directory, consumed by one full-stream
// query (shared strategy, parallelism = shards). The clock spans the
// first dial to full quiescence, so fsync batching is on the clock.
func RunIngestWAL(walOn bool, syncInterval time.Duration, shards, batch, tuples int) (WALIngestResult, error) {
	if shards < 1 {
		shards = 1
	}
	res := WALIngestResult{WAL: walOn, SyncInterval: syncInterval, Shards: shards, Batch: batch, Tuples: tuples}
	opts := []Option{WithStrategy(StrategyShared), WithParallelism(shards)}
	var walDir string
	if walOn {
		dir, err := os.MkdirTemp("", "datacell-walbench-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		walDir = dir
		opts = append(opts, WithWALOptions(WALOptions{Dir: dir, SyncInterval: syncInterval}))
	}
	eng := New(opts...)
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
			bw := ingest.NewBatchWriter(conn, []string{"k", "v"},
				[]vector.Type{vector.Int, vector.Int}, batch)
			for i := lo; i < hi; i++ {
				if err := bw.WriteRow(vector.NewInt(int64(i)), vector.NewInt(int64(i%1000))); err != nil {
					errs <- err
					return
				}
			}
			errs <- bw.Flush()
		}(s, lo, hi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return res, err
		}
	}

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
			return res, fmt.Errorf("datacell: wal ingest run stalled at %d/%d tuples", ingested, tuples)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if !eng.Drain(5 * time.Minute) {
		return res, fmt.Errorf("datacell: wal ingest run did not drain")
	}
	res.Elapsed = time.Since(start)
	res.EventsPerSec = float64(tuples) / res.Elapsed.Seconds()
	for _, st := range l.Stats() {
		res.Frames += st.Frames
	}
	if walOn {
		frames, bytes, err := walDirUsage(filepath.Join(walDir, "s"))
		if err != nil {
			return res, err
		}
		res.LoggedFrames = frames
		res.WALBytes = bytes
	}
	return res, nil
}

// walDirUsage totals the segment files of one stream's log: intact frame
// count (via a read-only scan) and on-disk bytes.
func walDirUsage(dir string) (frames int, bytes int64, err error) {
	info, err := wal.Scan(dir, ^uint64(0), nil)
	if err != nil {
		return 0, 0, err
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil || d.IsDir() {
			return werr
		}
		fi, serr := d.Info()
		if serr != nil {
			return serr
		}
		bytes += fi.Size()
		return nil
	})
	return info.Frames, bytes, err
}
