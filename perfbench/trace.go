package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the engine.
// Spans of one frame share its id: the encode and write spans carry it as
// their id, and a subscriber callback names the frame of its first row
// as its parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run epoch
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later ones are counted as
// dropped. Per-layer sums come from counters, not from the kept spans,
// so the bound never changes a metric.
const maxSpans = 300_000

// tracer keeps spans in memory and writes them out when the run ends.
// A traced run records the low-rate spans (control calls, snapshots,
// single-threaded replay) throughout; the per-frame and per-callback
// spans only while hot is set, in the second half of the nominal step.
type tracer struct {
	epoch   time.Time
	enabled bool
	hot     atomic.Bool
	nextID  atomic.Int64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	t := &tracer{epoch: epoch}
	t.nextID.Store(1 << 50) // above every frame id
	return t
}

// frameID names frame g of step si.
func frameID(si int, g int64) int64 { return int64(si+1)<<40 | g }

// add records a span in a traced run. id 0 draws a fresh id.
func (t *tracer) add(name string, id, parent int64, start, end time.Time) {
	if !t.enabled {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
