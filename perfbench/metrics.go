package main

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"datacell"
)

// metricDef names one reported metric. The end-to-end table and its
// bounds mirror BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_light_p50_us", "us", "lower", 0.25},
	{"peak_eps", "1/s", "higher", 0.25},
	{"cpu_ns_per_event", "ns", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
	{"ctl_p50_ms", "ms", "lower", 0.25},
}

// The extremes are per-layer metrics, not end-to-end ones: on a 2-vCPU
// virtual machine they track the time the hypervisor steals
// (host.steal_pct). Between runs of one commit the latency p99s varied
// by 50–300%, ctl_p90_ms by 30–50% and the heap peak by up to 40%, more
// than any regression bound can absorb.
var perLayer = []metricDef{
	{name: "lat_p99_us", unit: "us", better: "lower"},
	{name: "lat_light_p99_us", unit: "us", better: "lower"},
	{name: "ctl_p90_ms", unit: "ms", better: "lower"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
	{name: "host.steal_pct", unit: "%", better: "lower"},
	{name: "gen.late_p50_us", unit: "us", better: "lower"},
	{name: "gen.late_p99_us", unit: "us", better: "lower"},
	{name: "gen.encode_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "gen.write_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "gen.write_stall_ms", unit: "ms", better: "lower"},
	{name: "ingest.frames", unit: "count", better: "higher"},
	{name: "ingest.tuples", unit: "count", better: "higher"},
	{name: "ingest.route_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "ingest.stalls", unit: "count", better: "lower"},
	{name: "ingest.stall_ms", unit: "ms", better: "lower"},
	{name: "ingest.invalid", unit: "count", better: "lower"},
	{name: "wal.frames", unit: "count", better: "higher"},
	{name: "wal.bytes_per_tuple", unit: "B", better: "lower"},
	{name: "wal.syncs_per_s", unit: "1/s", better: "lower"},
	{name: "wal.batch_frames_mean", unit: "count", better: "higher"},
	{name: "wal.batch_frames_max", unit: "count", better: "higher"},
	{name: "basket.high_water", unit: "count", better: "lower"},
	{name: "basket.replica_per_tuple", unit: "ratio", better: "lower"},
	{name: "basket.routed_per_tuple", unit: "ratio", better: "lower"},
	{name: "basket.pruned_frac", unit: "ratio", better: "higher"},
	{name: "fire.count", unit: "count", better: "lower"},
	{name: "fire.tuples_per_fire", unit: "count", better: "higher"},
	{name: "fire.busy_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "fire.errors", unit: "count", better: "lower"},
	{name: "merge.waits", unit: "count", better: "lower"},
	{name: "merge.wait_us_mean", unit: "us", better: "lower"},
	{name: "emit.rows_per_tuple", unit: "ratio", better: "lower"},
	{name: "emit.busy_ns_per_row", unit: "ns", better: "lower"},
	{name: "sub.handoff_p50_us", unit: "us", better: "lower"},
	{name: "sub.handoff_p99_us", unit: "us", better: "lower"},
	{name: "sub.callback_ns_per_row", unit: "ns", better: "lower"},
	{name: "ctl.register_ms_p50", unit: "ms", better: "lower"},
	{name: "ctl.subscribe_ms_p50", unit: "ms", better: "lower"},
	{name: "ctl.remove_ms_p50", unit: "ms", better: "lower"},
	{name: "engine.rewires", unit: "count", better: "lower"},
	{name: "rt.alloc_bytes_per_tuple", unit: "B", better: "lower"},
	{name: "rt.gc_cycles", unit: "count", better: "lower"},
	{name: "rt.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "st.decode_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "st.wal_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "st.append_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "st.fire_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "st.eps", unit: "1/s", better: "higher"},
	{name: "ledger.unaccounted_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "ledger.lat_gen_late_us", unit: "us", better: "lower"},
	{name: "ledger.lat_write_us", unit: "us", better: "lower"},
	{name: "ledger.lat_engine_us", unit: "us", better: "lower"},
	{name: "ledger.lat_handoff_us", unit: "us", better: "lower"},
	{name: "trace.overhead_ns_per_tuple", unit: "ns", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
	{name: "trace.spans_dropped", unit: "count", better: "lower"},
	{name: "nominal.drain_ms", unit: "ms", better: "lower"},
	{name: "fail_frac", unit: "ratio", better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the set of metrics one run prints.
type report map[string]metricValue

// put stores a metric under the unit its definition gives.
func (r report) put(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// totals sums the counters of one snapshot that the per-layer metrics
// difference between step boundaries.
type totals struct {
	frames, tuples, invalid, walErrs, stalls int64
	stall, route                             time.Duration
	replica, routed, pruned, rewires         int64
	walFrames, walBytes, walSyncs            uint64
	walBatches, walBatchFrames, walMaxBatch  uint64
	highWater                                int64
}

func totalsOf(s datacell.Snapshot) totals {
	var t totals
	for _, in := range s.Ingest {
		t.frames += in.Frames
		t.tuples += in.Tuples
		t.invalid += in.Invalid
		t.walErrs += in.WALErrors
		t.stalls += in.Stalls
		t.stall += in.StallTime
		t.route += in.RouteTime
	}
	for _, g := range s.Groups {
		t.replica += g.ReplicaAppended
		t.routed += g.RoutedParts
		t.pruned += g.Pruned
		t.rewires += g.Rewires
	}
	for _, w := range s.WAL {
		t.walFrames += w.Frames
		t.walBytes += w.Bytes
		t.walSyncs += w.Syncs
		t.walBatches += w.Batches
		t.walBatchFrames += w.BatchFrames
		t.walMaxBatch = max(t.walMaxBatch, w.MaxBatch)
	}
	for _, b := range s.Baskets {
		t.highWater = max(t.highWater, b.HighWater)
	}
	return t
}

// queryDelta sums the per-query activity between two snapshots with no
// rewire between them (see queryLedger); a counter that still went
// backwards is taken as restarted and counted whole.
type queryDelta struct {
	fires, errors, outRows, mergeWaits int64
	busy, mergeWait, emitBusy          time.Duration
}

func (d *queryDelta) add(o queryDelta) {
	d.fires += o.fires
	d.errors += o.errors
	d.outRows += o.outRows
	d.mergeWaits += o.mergeWaits
	d.busy += o.busy
	d.mergeWait += o.mergeWait
	d.emitBusy += o.emitBusy
}

func queriesBetween(a, b datacell.Snapshot) queryDelta {
	prev := map[string]datacell.QueryStats{}
	for _, q := range a.Queries {
		prev[q.Name] = q
	}
	d64 := func(x, y int64) int64 {
		if y >= x {
			return y - x
		}
		return y
	}
	var d queryDelta
	for _, q := range b.Queries {
		p := prev[q.Name]
		d.fires += d64(p.Fires, q.Fires)
		d.errors += d64(p.Errors, q.Errors)
		d.outRows += d64(p.OutRows, q.OutRows)
		d.mergeWaits += d64(p.MergeWaits, q.MergeWaits)
		d.busy += time.Duration(d64(int64(p.Busy), int64(q.Busy)))
		d.mergeWait += time.Duration(d64(int64(p.MergeWait), int64(q.MergeWait)))
		d.emitBusy += time.Duration(d64(int64(p.EmitBusy), int64(q.EmitBusy)))
	}
	return d
}

// latHist counts durations in linear buckets of one width (100k of
// them) and interpolates quantiles within a bucket, so a median moves
// smoothly between runs instead of jumping between the ~3%-wide buckets
// of histo.H.
type latHist struct {
	width  int64          // bucket width in ns
	counts []atomic.Int64 // counts[i]: samples in [i, i+1) widths; the last also holds everything longer
}

const latHistBuckets = 100_000

func newLatHist(width time.Duration) *latHist {
	return &latHist{width: int64(width), counts: make([]atomic.Int64, latHistBuckets)}
}

func (h *latHist) record(d time.Duration) {
	i := max(0, min(int64(d)/h.width, latHistBuckets-1))
	h.counts[i].Add(1)
}

// quantile returns the q-quantile in microseconds, or 0 without samples.
func (h *latHist) quantile(q float64) float64 {
	us := float64(h.width) / 1e3
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c > 0 && seen+c >= target {
			return (float64(i) + (target-seen)/c) * us
		}
		seen += c
	}
	return latHistBuckets * us
}
