package datacell

import (
	"fmt"
	"sort"
	"time"

	"datacell/internal/adapt"
	"datacell/internal/obs"
)

// AdaptOptions tunes the adaptive-parallelism controller (`set
// parallelism = auto`). The zero value means defaults; see
// internal/adapt.Config for the per-field semantics and default values.
// Options apply to controllers engine-wide (WithAdaptOptions).
type AdaptOptions struct {
	// Tick is the sampling interval of the load metronome. Default 50ms.
	Tick time.Duration
	// HighWater / LowWater bracket basket occupancy: at or above
	// HighWater the group counts as backpressured, at or below LowWater
	// its clones may count as idle. Defaults 65536 (the ingest
	// periphery's watermark) and HighWater/8.
	HighWater int
	LowWater  int
	// StallFrac is the fraction of a window the ingest receptors must
	// have spent stalled to signal backpressure. Default 0.25.
	StallFrac float64
	// IdleFrac is the per-clone utilisation below which the wiring
	// counts as idle. Default 0.2.
	IdleFrac float64
	// Patience is how many consecutive ticks a signal must persist
	// before the controller acts. Default 3.
	Patience int
	// Cooldown is the minimum time between controller-driven rewires of
	// one group. Default 8×Tick.
	Cooldown time.Duration
	// MaxParallelism caps the partition count the controller may scale
	// to. Default GOMAXPROCS.
	MaxParallelism int
}

func (o AdaptOptions) config() adapt.Config {
	return adapt.Config{
		Tick:      o.Tick,
		HighWater: o.HighWater,
		LowWater:  o.LowWater,
		StallFrac: o.StallFrac,
		IdleFrac:  o.IdleFrac,
		Patience:  o.Patience,
		Cooldown:  o.Cooldown,
		MaxP:      o.MaxParallelism,
	}
}

// tick returns the effective sampling interval.
func (o AdaptOptions) tick() time.Duration {
	if o.Tick > 0 {
		return o.Tick
	}
	return 50 * time.Millisecond
}

// setAdaptOptions replaces the controller tuning (WithAdaptOptions).
// Existing controllers are discarded (their hysteresis restarts under the
// new thresholds); current per-group targets persist until the
// controllers decide otherwise.
func (e *Engine) setAdaptOptions(o AdaptOptions) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.adaptOpts = o
	for _, g := range e.groups {
		g.ctl = nil
	}
}

// setParallelismAuto hands the partition count of every group without a
// per-stream override to the adaptive controller (WithParallelismAuto,
// `set parallelism = auto`). Each such group starts from P=1 — the
// configuration static sweeps prove safe on any box — and scales up only
// on sustained backpressure, never beyond min(MaxParallelism, GOMAXPROCS)
// or what the group's partitionability verdict can exploit.
// `set parallelism = N` switches back to static. It can run while the
// engine runs.
func (e *Engine) setParallelismAuto() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.autoParallel {
		return nil
	}
	e.autoParallel = true
	for _, g := range e.groups {
		if g.ctlP < 1 {
			g.ctlP = 1
		}
		g.pendingReason = "parallelism set to auto (controller starts at P=1)"
	}
	return e.rewireAllLocked()
}

// setStreamParallelism pins one stream's query group to a fixed
// partition count, overriding both the engine-wide setting and the
// controller (`set parallelism = N on <stream>`).
func (e *Engine) setStreamParallelism(stream string, p int) error {
	if p < 1 {
		return fmt.Errorf("datacell: parallelism must be at least 1, got %d", p)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	g, err := e.groupLocked(stream)
	if err != nil {
		return err
	}
	if g.override == p {
		return nil
	}
	g.override = p
	g.pendingReason = fmt.Sprintf("stream parallelism pinned to %d", p)
	return e.rewireLocked(g)
}

// setStreamParallelismAuto hands one stream's partition count to the
// adaptive controller regardless of the engine-wide setting
// (`set parallelism = auto on <stream>`).
func (e *Engine) setStreamParallelismAuto(stream string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, err := e.groupLocked(stream)
	if err != nil {
		return err
	}
	if g.override == -1 {
		return nil
	}
	g.override = -1
	if g.ctlP < 1 {
		g.ctlP = 1
	}
	g.pendingReason = "stream parallelism set to auto (controller starts at P=1)"
	return e.rewireLocked(g)
}

// clearStreamParallelism removes a stream's parallelism override so the
// group follows the engine-wide setting again
// (`set parallelism = default on <stream>`).
func (e *Engine) clearStreamParallelism(stream string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, err := e.groupLocked(stream)
	if err != nil {
		return err
	}
	if g.override == 0 {
		return nil
	}
	g.override = 0
	g.pendingReason = "stream parallelism override cleared"
	return e.rewireLocked(g)
}

// groupAutoLocked reports whether the controller drives g's partition
// count. Caller holds e.mu.
func (e *Engine) groupAutoLocked(g *queryGroup) bool {
	return g.override == -1 || (g.override == 0 && e.autoParallel)
}

// groupParallelismLocked returns the partition count g's next wiring
// should target: a per-stream pin wins, then the controller target for
// auto groups, then the engine-wide setting. Caller holds e.mu.
func (e *Engine) groupParallelismLocked(g *queryGroup) int {
	if g.override > 0 {
		return g.override
	}
	if e.groupAutoLocked(g) {
		if g.ctlP < 1 {
			return 1
		}
		return g.ctlP
	}
	return e.parallelism
}

// maxUsefulP is the plan-side clamp on the group's partition count: the
// largest P its partitionability verdicts can exploit. 0 means
// unbounded (the core clamp still applies); 1 pins the group. Under the
// separate strategy one partitionable member is enough — the others
// simply keep single factories; under shared/partial the group-wide
// combined verdict decides.
func (g *queryGroup) maxUsefulP() int {
	if len(g.scans) == 0 {
		return 1
	}
	if g.effective == StrategySeparate {
		for _, m := range g.scans {
			if m.scan.Part.ClampP(2) > 1 {
				return 0
			}
		}
		return 1
	}
	if g.partitioning().ClampP(2) > 1 {
		return 0
	}
	return 1
}

// ensureControllerLocked returns g's controller, creating it with the
// engine's current options on first use. Caller holds e.mu.
func (e *Engine) ensureControllerLocked(g *queryGroup) *adapt.Controller {
	if g.ctl == nil {
		g.ctl = adapt.New(e.adaptOpts.config())
	}
	return g.ctl
}

// applyAutoPLocked installs a controller decision: records the new
// target and reason and rebuilds the wiring through the ordinary
// quiesce-and-swap rewire. Caller holds e.mu.
func (e *Engine) applyAutoPLocked(g *queryGroup, p int, reason string) error {
	if p < 1 {
		p = 1
	}
	g.ctlP = p
	g.pendingReason = reason
	return e.rewireLocked(g)
}

// adaptLoop is the load metronome: it samples every group each tick and
// lets the controllers of auto groups act. Started by Start, stopped by
// Stop.
func (e *Engine) adaptLoop(stop, done chan struct{}) {
	defer close(done)
	for {
		e.mu.Lock()
		d := e.adaptOpts.tick()
		e.mu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-stop:
			t.Stop()
			return
		case now := <-t.C:
			e.adaptTick(now)
		}
	}
}

// adaptTick runs one sampling pass over all groups: windowed load deltas
// are computed for every group (feeding GroupInfo's rate fields), and
// groups under controller management additionally get a scaling
// decision. Exposed to tests via direct calls; production ticks come
// from adaptLoop.
func (e *Engine) adaptTick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.groups))
	for n := range e.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := e.groups[n]
		s, ok := e.sampleLocked(g, now)
		if !ok || len(g.scans) == 0 || !e.groupAutoLocked(g) {
			continue
		}
		ctl := e.ensureControllerLocked(g)
		e.ev.decisions.Inc()
		if d, act := ctl.Decide(now, s); act {
			e.ev.applies.Inc()
			e.trace.Add(obs.Event{Subsystem: "adapt", Kind: "decide", Name: n,
				Reason: d.Reason, Time: e.cat.Now(),
				Fields: fmt.Sprintf("p=%d occupancy=%d stalls=%d stall_time=%s busy=%s fires=%d window=%s",
					d.P, s.Occupancy, s.Stalls, s.StallTime, s.Busy, s.Fires, s.Window)})
			if err := e.applyAutoPLocked(g, d.P, d.Reason); err != nil {
				// A failed rewire leaves the old wiring torn down only if
				// the rebuild itself failed, which registration already
				// validated against; record the error as the last reason.
				g.lastRewireReason = fmt.Sprintf("rewire failed: %v", err)
			}
		}
	}
}

// sampleLocked computes g's windowed load sample: deltas of the ingest,
// firing and busy counters since the previous tick, plus instantaneous
// basket occupancy. The first call after a rewire (or ever) only
// establishes baselines and reports ok=false. The hot path pays nothing
// for this: all counters are atomics the sampler reads. Caller holds
// e.mu.
func (e *Engine) sampleLocked(g *queryGroup, now time.Time) (adapt.Sample, bool) {
	var tuples, stalls int64
	var stallT time.Duration
	for _, l := range g.listeners {
		for _, st := range l.Stats() {
			tuples += st.Tuples
			stalls += st.Stalls
			stallT += st.StallTime
		}
	}
	var busy time.Duration
	var fires int64
	for _, f := range g.wired {
		busy += f.Busy()
		fires += f.Fires()
	}
	occ := g.stream.Len()
	for _, m := range g.scans {
		if m.priv != nil && m.priv.Len() > occ {
			occ = m.priv.Len()
		}
	}
	for _, pb := range g.pbs {
		// Parts() excludes the catch-all: pruned tuples are discarded
		// or parked there, and no clone drains them, so they are not
		// backpressure.
		for _, p := range pb.Parts() {
			if p.Len() > occ {
				occ = p.Len()
			}
		}
	}

	fresh := g.lastSampleAt.IsZero() || g.sampleGen != g.gen
	window := now.Sub(g.lastSampleAt)
	dTuples := tuples - g.lastIngTuples
	dStalls := stalls - g.lastIngStalls
	dStallT := stallT - g.lastIngStallT
	dBusy := busy - g.lastBusy
	dFires := fires - g.lastFires

	g.lastSampleAt = now
	g.sampleGen = g.gen
	g.lastIngTuples, g.lastIngStalls, g.lastIngStallT = tuples, stalls, stallT
	g.lastBusy, g.lastFires = busy, fires

	if fresh || window <= 0 {
		g.rates = groupRates{}
		return adapt.Sample{}, false
	}
	g.rates = groupRates{
		window:         window,
		tuplesPerSec:   float64(dTuples) / window.Seconds(),
		stallsDelta:    dStalls,
		stallTimeDelta: dStallT,
	}
	return adapt.Sample{
		Occupancy: occ,
		Stalls:    dStalls,
		StallTime: dStallT,
		Busy:      dBusy,
		Fires:     dFires,
		Window:    window,
		CurrentP:  e.groupParallelismLocked(g),
		MaxUseful: g.maxUsefulP(),
	}, true
}
