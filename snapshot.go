package datacell

import (
	"sort"
	"time"
)

// Snapshot is one consistent point-in-time view of a running engine and
// the one way to read its state: configuration, per-query counters,
// per-stream wiring, ingest, WAL and basket counters. Engine.Snapshot
// gathers every section under a single acquisition of the engine mutex,
// so no section can tear against another.
//
// Field stability: fields are append-only — new sections may be added in
// later versions, existing ones keep their names, types and meaning, so
// callers (cmd/datacell, cmd/datacellbench, external monitors) can encode
// a Snapshot and diff it across versions.
type Snapshot struct {
	// At is the engine-clock capture time (WithClock-aware).
	At time.Time
	// Started reports whether the scheduler is running.
	Started bool

	// Engine-wide configuration at capture time.
	Strategy        Strategy
	Parallelism     int
	AutoParallelism bool
	// WALDir is the open write-ahead-log root ("" when durability is off).
	WALDir string

	// Queries holds per-query activity counters, sorted by name.
	Queries []QueryStats
	// Groups holds per-stream wiring reports, sorted by stream. Each embeds
	// its listeners' IngestStats (GroupInfo.Receptors).
	Groups []GroupInfo
	// Ingest flattens every receptor shard's counters across all groups,
	// for callers that want listener totals without walking Groups.
	Ingest []IngestStats
	// Recovery reports the most recent WAL Recover pass, nil when no
	// recovery has run in this process.
	Recovery *RecoveryInfo
	// Subscriptions counts live query subscriptions (SubscribeQuery minus
	// Cancel/RemoveQuery).
	Subscriptions int

	// WAL holds per-stream log counters (appends, fsyncs, rotations and
	// group-commit batch sizes) for every log opened in this process;
	// empty when durability is off.
	WAL []WALStreamStats
	// Baskets holds per-stream basket occupancy: resident tuples, the
	// high-water mark and the lifetime append/drop/consume counters of
	// every stream basket with a query group.
	Baskets []BasketStats
	// EventsTotal counts engine trace events ever recorded (retained or
	// shed from the ring); Engine.Events returns the retained tail.
	EventsTotal uint64
}

// WALStreamStats is one stream's write-ahead-log counters.
type WALStreamStats struct {
	Stream      string
	Frames      uint64 // frame records appended
	Bytes       uint64 // record bytes appended
	Syncs       uint64 // fsync batches issued
	Rotations   uint64 // segment rotations
	Batches     uint64 // non-empty group-commit batches
	BatchFrames uint64 // frames across those batches (mean = BatchFrames/Batches)
	MaxBatch    uint64 // largest single commit batch
}

// BasketStats is one stream basket's occupancy and lifetime counters.
type BasketStats struct {
	Stream    string
	Resident  int   // tuples currently held
	HighWater int64 // peak resident occupancy
	Appended  int64
	Dropped   int64
	Consumed  int64
}

// Snapshot captures the engine's full observable state at one instant:
// configuration, per-query counters, per-stream group wiring with ingest
// shard stats, the last recovery report and the live subscription count.
// All sections are gathered under one acquisition of the engine mutex
// (nested locks follow the engine's fixed order: engine → group → basket),
// so the sections are mutually consistent — a concurrent rewire or
// register is either fully visible in every section or in none.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Snapshot{
		At:              e.cat.Now(),
		Started:         e.started,
		Strategy:        e.strategy,
		Parallelism:     e.parallelism,
		AutoParallelism: e.autoParallel,
		Queries:         e.statsLocked(),
		Groups:          e.groupsLocked(),
		Subscriptions:   e.subscriptionsLocked(),
	}
	if e.wal != nil {
		s.WALDir = e.wal.opts.Dir
		names := make([]string, 0, len(e.wal.logs))
		for n := range e.wal.logs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ws := e.wal.logs[n].Stats()
			s.WAL = append(s.WAL, WALStreamStats{
				Stream:      n,
				Frames:      ws.Frames,
				Bytes:       ws.Bytes,
				Syncs:       ws.Syncs,
				Rotations:   ws.Rotations,
				Batches:     ws.Batches,
				BatchFrames: ws.BatchFrames,
				MaxBatch:    ws.MaxBatch,
			})
		}
	}
	if e.lastRecovery != nil {
		cp := *e.lastRecovery
		s.Recovery = &cp
	}
	for i := range s.Groups {
		s.Ingest = append(s.Ingest, s.Groups[i].Receptors...)
	}
	gnames := make([]string, 0, len(e.groups))
	for n := range e.groups {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		g := e.groups[n]
		bs := g.stream.Stats()
		s.Baskets = append(s.Baskets, BasketStats{
			Stream:    n,
			Resident:  g.stream.Len(),
			HighWater: bs.HighWater,
			Appended:  bs.Appended,
			Dropped:   bs.Dropped,
			Consumed:  bs.Consumed,
		})
	}
	s.EventsTotal = e.trace.Total()
	return s
}
