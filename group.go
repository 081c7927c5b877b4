package datacell

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"datacell/internal/adapt"
	"datacell/internal/basket"
	"datacell/internal/bat"
	"datacell/internal/core"
	"datacell/internal/ingest"
	"datacell/internal/obs"
	"datacell/internal/plan"
	"datacell/internal/vector"
)

// Strategy selects the paper's multi-query processing scheme (§4.2,
// Figures 2a–2c) used to wire all continuous queries that consume one
// stream. It is set engine-wide with WithStrategy or the SQL pragma
// `set strategy = 'separate' | 'shared' | 'partial'`.
type Strategy string

// Multi-query processing strategies.
const (
	// StrategySeparate replicates every arriving tuple into a private
	// basket per query; queries run fully independently (Figure 2a).
	StrategySeparate Strategy = "separate"
	// StrategyShared lets all queries read the stream basket in place; a
	// locker/unlocker pair synchronises the group and covered tuples are
	// removed once per group, not once per query (Figure 2b).
	StrategyShared Strategy = "shared"
	// StrategyPartial chains the queries: each removes the tuples it
	// covers and forwards only the residue to the next (Figure 2c).
	StrategyPartial Strategy = "partial"
)

// ParseStrategy converts a strategy name into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(strings.ToLower(strings.TrimSpace(s))) {
	case StrategySeparate:
		return StrategySeparate, nil
	case StrategyShared:
		return StrategyShared, nil
	case StrategyPartial:
		return StrategyPartial, nil
	}
	return "", fmt.Errorf("datacell: unknown strategy %q (want 'separate', 'shared' or 'partial')", s)
}

// queryGroup manages the multi-query wiring of one stream: every
// continuous query consuming the stream is either a scan member (a
// compiled plan.StreamScan that can be wired under any strategy) or a tap
// (the private replica basket of a standalone query that needs a full
// copy of the stream). Membership changes and engine strategy switches
// tear the current factory wiring down and rebuild it, which is safe
// while the scheduler runs.
type queryGroup struct {
	name   string
	stream *basket.Basket
	scans  []*groupMember
	taps   []*basket.Basket
	wired  []*core.Factory
	// privs records every private replica basket this group ever created,
	// including those of since-removed members: a replica's residue is
	// per-query window state that must never be mistaken for in-flight
	// stream data by drainAux (other queries already got their copies).
	privs map[*basket.Basket]bool
	// effective is the strategy of the current wiring (taps force
	// separate); parallel is the partition count the wiring actually uses;
	// gen numbers wirings so rebuilt factories get fresh names.
	effective Strategy
	parallel  int
	gen       int

	// Partitioned-wiring teardown state. parts are the stream partitions
	// of a shared/partial wiring, including any range-routing catch-all
	// (their residue returns to the stream); memberParts are the
	// per-member partitions of a separate wiring, again including
	// catch-alls (their residue is per-query window state and returns to
	// the member's private replica); staging pairs flush
	// computed-but-unmerged results to their query's result basket; pbs
	// are the partitioned baskets the wiring routes through, kept for
	// monitoring (per-partition routed counts, pruning counters).
	parts       []*basket.Basket
	memberParts map[*groupMember][]*basket.Basket
	staging     []stagedOut
	pbs         []*basket.PartitionedBasket

	// Ingest periphery state. ingest is the stream's delivery target:
	// receptor shards acquire it per batch, rewires quiesce it and swap
	// the sink (route-at-ingest straight into the group-wide partitioned
	// basket under shared/partial partitioned wiring, a per-member
	// fan-out under partitioned separate wiring, the stream basket
	// otherwise). listeners are the sharded ingest groups attached with
	// ListenIngest.
	ingest    *ingest.SwitchTarget
	listeners []*IngestListener

	// Adaptive-parallelism state. override is the per-group parallelism:
	// 0 inherits the engine setting, -1 follows the controller, >0 pins
	// the group. ctl/ctlP are the group's controller and its current
	// target (valid while the group is auto); rewires and
	// lastRewireReason account for every wiring rebuild over the group's
	// lifetime (pendingReason is set by the caller that triggers one).
	override         int
	ctl              *adapt.Controller
	ctlP             int
	rewires          int64
	lastRewireReason string
	pendingReason    string

	// Load-sampling baselines: the controller and GroupInfo work on
	// windowed deltas, so each metronome tick subtracts the previous
	// totals. sampleGen invalidates the factory baselines across rewires
	// (fresh factories restart their counters).
	lastSampleAt  time.Time
	sampleGen     int
	lastBusy      time.Duration
	lastFires     int64
	lastIngTuples int64
	lastIngStalls int64
	lastIngStallT time.Duration
	rates         groupRates
}

// groupRates is the windowed ingest activity of one group: deltas over
// the last sampling window rather than lifetime totals, so explain and
// Groups show current load.
type groupRates struct {
	window         time.Duration
	tuplesPerSec   float64
	stallsDelta    int64
	stallTimeDelta time.Duration
}

// target returns the group's ingest delivery target, created on first
// use with the stream basket as sink.
func (g *queryGroup) target() *ingest.SwitchTarget {
	if g.ingest == nil {
		g.ingest = ingest.NewSwitchTarget(ingest.BasketSink(g.stream))
	}
	return g.ingest
}

// routeSink returns the sink the current wiring ingests through:
// route-at-ingest applies when the group runs one partitioned wiring for
// every member (shared/partial strategy), so a receptor batch can be
// routed once and land in its destination partitions — or the catch-all
// — without the stream basket and splitter hop. A partitioned separate
// wiring routes at ingest too: the fan-out sink performs the
// replicator's one-copy-per-member duplication itself, delivering each
// copy straight into the member's partitioned basket (or private
// replica) and each tap's replica, so the stream basket, replicator and
// splitter transitions all leave the ingest path. Unpartitioned separate
// wiring keeps the stream basket as the entry point.
func (g *queryGroup) routeSink() ingest.Sink {
	if g.effective != StrategySeparate && len(g.parts) > 0 && len(g.pbs) == 1 {
		return ingest.PartitionedSink(g.pbs[0])
	}
	if g.effective == StrategySeparate && len(g.memberParts) > 0 {
		sinks := make([]ingest.Sink, 0, len(g.scans)+len(g.taps))
		for _, m := range g.scans {
			switch {
			case m.pb != nil:
				sinks = append(sinks, ingest.PartitionedSink(m.pb))
			case m.priv != nil:
				sinks = append(sinks, ingest.BasketSink(m.priv))
			}
		}
		for _, t := range g.taps {
			sinks = append(sinks, ingest.BasketSink(t))
		}
		if len(sinks) > 0 {
			return ingest.FanoutSink(sinks)
		}
	}
	return ingest.BasketSink(g.stream)
}

// stagedOut pairs the staging baskets of one partitioned query with its
// result basket, for the teardown flush. combine is the query's two-phase
// fold when the wiring staged partial-aggregate state rather than final
// results: the flush must merge, not concatenate.
type stagedOut struct {
	staging []*basket.Basket
	out     *basket.Basket
	combine *core.Combine
}

// groupMember is one scan member: its compiled stream-scan artifact, the
// private replica used under the separate strategy (created lazily,
// persists across rewires so residual window tuples survive), the
// partitioned basket of the current wiring (nil when unpartitioned;
// route-at-ingest delivers the member's stream copy straight into it),
// and the factories currently executing the query — one under
// unpartitioned wiring, one clone per partition under partitioned
// wiring.
type groupMember struct {
	name      string
	scan      *plan.StreamScan
	priv      *basket.Basket
	pb        *basket.PartitionedBasket
	factories []*core.Factory
	// merge is the member's merge emitter under partitioned wiring (nil
	// otherwise); its BarrierStats feed the merge stage of the query's
	// timing breakdown.
	merge *core.Factory
}

// flush runs the member's query once over its private replica, consuming
// whatever it covers. Called during a rewire (the member's factory is
// quiesced), it takes the same basket locks a firing would, in global ID
// order. Residual tuples the query already declined to cover match
// nothing again, so flushing is idempotent; only replicated-but-
// unprocessed tuples produce output.
func (m *groupMember) flush() error {
	if m.priv == nil || m.priv.Len() == 0 {
		return nil
	}
	if m.priv.Len() < m.scan.Threshold {
		// A tuple-count window that is not full has not triggered; its
		// tuples stay in the replica and resume if the group returns to
		// the separate wiring.
		return nil
	}
	out := m.scan.Out
	lockSet := append([]*basket.Basket{m.priv, out}, m.scan.LockOnly...)
	uniq := lockSet[:0]
	seen := map[uint64]bool{}
	for _, b := range lockSet {
		if !seen[b.ID()] {
			seen[b.ID()] = true
			uniq = append(uniq, b)
		}
	}
	slices.SortFunc(uniq, func(a, b *basket.Basket) int {
		switch {
		case a.ID() < b.ID():
			return -1
		case a.ID() > b.ID():
			return 1
		}
		return 0
	})
	for _, b := range uniq {
		b.Lock()
	}
	before := out.LenLocked()
	err := m.scan.Run(m.priv, out, nil)
	grew := out.LenLocked() > before
	for i := len(uniq) - 1; i >= 0; i-- {
		uniq[i].Unlock()
	}
	if grew {
		out.NotifyAppend()
	}
	return err
}

// groupLocked returns (creating if needed) the query group of a stream.
// Caller holds e.mu.
func (e *Engine) groupLocked(streamName string) (*queryGroup, error) {
	if g, ok := e.groups[streamName]; ok {
		return g, nil
	}
	b := e.cat.Basket(streamName)
	if b == nil {
		return nil, fmt.Errorf("datacell: unknown stream %q", streamName)
	}
	g := &queryGroup{name: streamName, stream: b, effective: e.strategy, parallel: 1}
	e.groups[streamName] = g
	return g, nil
}

// rewireLocked tears down a group's current factory wiring and rebuilds
// it under the engine strategy, then records the rebuild in the event
// trace with its reason and duration. Caller holds e.mu.
func (e *Engine) rewireLocked(g *queryGroup) error {
	start := time.Now()
	err := e.rewireInnerLocked(g)
	e.ev.rewires.Inc()
	ev := obs.Event{Subsystem: "engine", Kind: "rewire", Name: g.name,
		Reason: g.lastRewireReason, Duration: time.Since(start), Time: e.cat.Now(),
		Fields: fmt.Sprintf("strategy=%s parallel=%d members=%d taps=%d",
			g.effective, g.parallel, len(g.scans), len(g.taps))}
	if err != nil {
		ev.Fields += " err=" + err.Error()
	}
	e.trace.Add(ev)
	return err
}

// rewireInnerLocked is the rebuild itself. Old factories are unregistered
// and waited idle first, so they can never fire again; a mid-cycle
// teardown of the shared wiring may have left the stream blocked, which
// the rebuild reopens. Caller holds e.mu; factory bodies never take e.mu,
// so waiting under it cannot deadlock.
func (e *Engine) rewireInnerLocked(g *queryGroup) error {
	for _, f := range g.wired {
		e.sch.Unregister(f)
		f.WaitIdle()
	}
	// Complete a shared cycle torn down midway: tuples some reader already
	// emitted carry cover credits, and the unlocker that would have
	// removed them is gone — delete them now or the rebuilt wiring scans
	// them again and emits duplicates. A no-op outside shared wiring
	// (no credits are ever recorded).
	g.stream.Lock()
	g.stream.DeleteCoveredLocked(1)
	g.stream.Unlock()
	g.stream.SetEnabled(true)
	// Re-enable every destination of the torn-down partitioned wiring
	// before quiescing the ingest periphery: a route-at-ingest append
	// blocked on a partition that a mid-cycle teardown left disabled must
	// complete for the quiesce to finish, and with the factories gone
	// nothing else would ever re-enable it. (drainPartitioned re-enables
	// again under the basket lock; doing it twice is harmless.)
	for _, pb := range g.pbs {
		for _, d := range pb.Destinations() {
			d.SetEnabled(true)
		}
	}
	// Quiesce the ingest periphery: block new receptor deliveries and
	// wait out in-flight ones, so the drains below observe a stable
	// basket population and no batch lands in a basket that is being
	// dismantled. The deferred resume installs the rebuilt wiring's sink
	// (route-at-ingest or stream basket) and reopens delivery.
	resume := g.target().Quiesce()
	defer func() { resume(g.routeSink()) }()
	// Partitioned baskets drain first: staging results must reach their
	// result baskets before drainAux could mistake a stream-schema staging
	// basket for in-flight stream data, and partition residue must return
	// to its owner (stream or member replica) with its cover credits
	// resolved, which drainAux does not do.
	g.drainPartitioned()
	g.drainAux()
	g.wired = nil
	g.parts, g.memberParts, g.staging, g.pbs = nil, nil, nil, nil
	g.parallel = 1
	for _, m := range g.scans {
		m.factories = nil
		m.pb = nil
		m.merge = nil
	}
	g.rewires++
	if g.pendingReason != "" {
		g.lastRewireReason = g.pendingReason
		g.pendingReason = ""
	} else {
		g.lastRewireReason = "membership or configuration change"
	}
	// Fresh factories restart their fire/busy counters; invalidate the
	// sampler's baselines so the next tick reports a zero delta instead of
	// a negative one.
	g.sampleGen = -1
	if len(g.scans) == 0 && len(g.taps) == 0 {
		return nil
	}

	// Standalone queries need a full private copy of the stream, which
	// only the replicating wiring provides; their presence forces the
	// separate strategy for the whole group.
	g.effective = e.strategy
	if len(g.taps) > 0 {
		g.effective = StrategySeparate
	}
	// Leaving the separate wiring: process tuples already replicated into
	// the members' private baskets first — no factory of the new wiring
	// reads them, so they would otherwise be stranded unprocessed.
	if g.effective != StrategySeparate {
		for _, m := range g.scans {
			if err := m.flush(); err != nil {
				return err
			}
		}
	}
	g.gen++
	prefix := fmt.Sprintf("%s$%s%d", g.name, g.effective, g.gen)

	var fs []*core.Factory
	var err error
	if g.effective == StrategySeparate {
		fs, err = e.wireSeparateLocked(g, prefix)
	} else {
		fs, err = e.wireSharedChainLocked(g, prefix)
	}
	if err != nil {
		return err
	}
	// Latency attachment must precede scheduler registration: Register
	// spawns the firing goroutines, and TryFire reads the latency fields
	// unsynchronized.
	e.attachLatencyLocked(g)
	for _, f := range fs {
		if err := e.sch.Register(f); err != nil {
			return err
		}
	}
	g.wired = fs
	return nil
}

// attachLatencyLocked hands every member factory of the fresh wiring its
// query's latency histogram. The source basket is the factory's first
// input: the private replica (separate), the shared stream or chain
// basket (shared/partial), or the clone's partition basket — in every
// wiring that basket's sys_ts column carries the receptor arrival stamp,
// copied along full-width by replicators and routers. Caller holds e.mu.
func (e *Engine) attachLatencyLocked(g *queryGroup) {
	for _, m := range g.scans {
		h := e.qlat[m.name]
		if h == nil {
			continue
		}
		for _, f := range m.factories {
			if ins := f.Inputs(); len(ins) > 0 {
				f.SetLatency(h, ins[0], e.cat.Now)
			}
		}
	}
}

// wireSeparateLocked builds the separate-baskets wiring: a replicator
// copies the stream into one private replica per member (plus the taps),
// and each member runs over its replica — partitioned into splitter,
// per-partition clones and a merge emitter when the member's plan admits
// it and the engine parallelism exceeds one, as a single factory
// otherwise. Partitioning composes per member here: every member applies
// its own verdict.
func (e *Engine) wireSeparateLocked(g *queryGroup, prefix string) ([]*core.Factory, error) {
	outs := make([]*basket.Basket, 0, len(g.scans)+len(g.taps))
	for _, m := range g.scans {
		if m.priv == nil {
			names, types := g.stream.UserSchema()
			m.priv = basket.New(g.name+"$"+strings.ToLower(m.name), names, types)
			if g.privs == nil {
				g.privs = map[*basket.Basket]bool{}
			}
			g.privs[m.priv] = true
		}
		outs = append(outs, m.priv)
	}
	outs = append(outs, g.taps...)
	rep, err := core.NewReplicator(prefix+".replicate", g.stream, outs)
	if err != nil {
		return nil, err
	}
	fs := []*core.Factory{rep}
	for _, m := range g.scans {
		mfs, err := e.wireMemberLocked(g, prefix, m)
		if err != nil {
			return nil, err
		}
		fs = append(fs, mfs...)
	}
	return fs, nil
}

// wireMemberLocked wires one separate-strategy member over its private
// replica.
func (e *Engine) wireMemberLocked(g *queryGroup, prefix string, m *groupMember) ([]*core.Factory, error) {
	sq := m.scan.StreamQuery()
	p := e.groupParallelismLocked(g)
	if p <= 1 || m.scan.Part.Mode == plan.PartNone {
		f, err := core.NewStreamQueryFactory(prefix+".q."+m.name, m.priv, sq)
		if err != nil {
			return nil, err
		}
		m.factories = []*core.Factory{f}
		return []*core.Factory{f}, nil
	}
	names, types := g.stream.UserSchema()
	pb, err := newPartitionedBasket(prefix+".part."+m.name, names, types, p, m.scan.Part)
	if err != nil {
		return nil, err
	}
	pw, err := core.PartitionedQuery(prefix+".m."+m.name, m.priv, pb, sq)
	if err != nil {
		return nil, err
	}
	m.factories = pw.QueryFs[0]
	m.merge = pw.Merges[0]
	m.pb = pb
	if g.memberParts == nil {
		g.memberParts = map[*groupMember][]*basket.Basket{}
	}
	g.memberParts[m] = pb.Destinations()
	g.staging = append(g.staging, stagedOut{staging: pw.Staging[0], out: sq.Out, combine: sq.Combine})
	g.pbs = append(g.pbs, pb)
	g.parallel = p
	return pw.Factories, nil
}

// newPartitionedBasket builds the partitioned basket a routing verdict
// calls for: range-routed and pruning for sargable plans, hash for
// grouped plans, round-robin otherwise. Pruned tuples are discarded when
// the verdict allows it and parked in a catch-all otherwise.
func newPartitionedBasket(name string, names []string, types []vector.Type, p int, v plan.Verdict) (*basket.PartitionedBasket, error) {
	switch v.Mode {
	case plan.PartRange:
		return basket.NewPartitionedRange(name, names, types, p, v.Col, v.Set(), v.Discard)
	case plan.PartHash:
		// A grouped plan with a sargable side condition still prunes:
		// tuples outside the necessary-condition set never reach a
		// partial-aggregate clone.
		if col, set, ok := v.Prune(); ok {
			return basket.NewPartitionedHashPruned(name, names, types, p, v.Col, col, set, v.Discard)
		}
		return basket.NewPartitioned(name, names, types, p, basket.PartitionHash, v.Col)
	}
	return basket.NewPartitioned(name, names, types, p, basket.PartitionRoundRobin, "")
}

// wireSharedChainLocked builds the shared-baskets or partial-deletes
// wiring. All members work on the stream basket (or its partitions)
// directly, so partitioning applies group-wide: every member must accept
// the same split, otherwise the group stays at one partition.
func (e *Engine) wireSharedChainLocked(g *queryGroup, prefix string) ([]*core.Factory, error) {
	p := e.groupParallelismLocked(g)
	verdict := g.partitioning()
	if p > 1 && verdict.Mode != plan.PartNone {
		names, types := g.stream.UserSchema()
		pb, err := newPartitionedBasket(prefix+".part", names, types, p, verdict)
		if err != nil {
			return nil, err
		}
		var pw *core.Partitioned
		if g.effective == StrategyShared {
			pw, err = core.PartitionedShared(prefix, g.stream, pb, g.streamQueries())
		} else {
			pw, err = core.PartitionedPartial(prefix, g.stream, pb, g.streamQueries())
		}
		if err != nil {
			return nil, err
		}
		for i, m := range g.scans {
			m.factories = pw.QueryFs[i]
			m.merge = pw.Merges[i]
			g.staging = append(g.staging, stagedOut{staging: pw.Staging[i], out: m.scan.Out, combine: m.scan.Combine})
		}
		g.parts = pb.Destinations()
		g.pbs = append(g.pbs, pb)
		g.parallel = p
		return pw.Factories, nil
	}
	if g.effective == StrategyShared {
		all, err := core.SharedBaskets(prefix, g.stream, g.streamQueries())
		if err != nil {
			return nil, err
		}
		for i, m := range g.scans {
			m.factories = []*core.Factory{all[1+i]} // [locker, readers…, unlocker]
		}
		return all, nil
	}
	all, err := core.PartialDeletes(prefix, g.stream, g.streamQueries())
	if err != nil {
		return nil, err
	}
	for i, m := range g.scans {
		m.factories = []*core.Factory{all[i]}
	}
	return all, nil
}

// partitioning computes the group-wide partitioning verdict used by the
// shared and partial wirings: row-local members accept any split, grouped
// members need their hash column, all-sargable members route by range on
// a column they all constrain (with the union of their sets feeding the
// catch-all test), and any non-partitionable member — or two grouped
// members hashing different columns — pins the group to one partition.
func (g *queryGroup) partitioning() plan.Verdict {
	vs := make([]plan.Verdict, len(g.scans))
	for i, m := range g.scans {
		vs[i] = m.scan.Part
	}
	return plan.CombineVerdicts(vs...)
}

// drainPartitioned returns the tuples held by a torn-down partitioned
// wiring to where they belong: staged results flush to their query's
// result basket, stream partitions return to the stream (completing any
// interrupted shared cycle's covered deletes first, and re-enabling
// partitions a mid-cycle teardown left blocked), and per-member partitions
// return to the member's private replica — they are per-query window
// state, never shared stream data. Runs after every wired factory is
// unregistered and idle.
func (g *queryGroup) drainPartitioned() {
	for _, so := range g.staging {
		if so.combine != nil {
			// Staged partial-aggregate state must be folded, not
			// concatenated: the teardown acts as the wiring's final
			// combining-merge firing.
			parts := make([]*bat.Relation, len(so.staging))
			any := false
			for i, st := range so.staging {
				parts[i] = st.TakeAll()
				if parts[i].Len() > 0 {
					any = true
				}
			}
			if any {
				if rel, err := so.combine.Merge(parts, so.out); err == nil && rel.Len() > 0 {
					so.out.Append(rel)
				}
			}
			continue
		}
		for _, st := range so.staging {
			if rel := st.TakeAll(); rel.Len() > 0 {
				so.out.Append(rel)
			}
		}
	}
	for _, p := range g.parts {
		p.Lock()
		p.SetOnEnable(nil)
		p.DeleteCoveredLocked(1)
		rel := p.TakeAllLocked()
		p.SetEnabledLocked(true)
		p.Unlock()
		if rel.Len() > 0 {
			g.stream.Append(rel)
		}
	}
	for m, parts := range g.memberParts {
		for _, p := range parts {
			p.SetOnEnable(nil)
			if rel := p.TakeAll(); rel.Len() > 0 {
				m.priv.Append(rel)
			}
		}
	}
}

// drainAux returns tuples stranded in auxiliary wiring baskets — the
// partial-delete chain of a torn-down wiring — to the stream, so a
// mid-cycle rewire never loses in-flight data. Only old factory inputs
// that carry the stream's schema qualify; member replicas (g.privs,
// including replicas of removed members) keep their residue — it is
// per-query window state, not in-flight data — and the shared wiring's
// flag baskets don't match the schema.
func (g *queryGroup) drainAux() {
	sNames, sTypes := g.stream.UserSchema()
	seen := map[*basket.Basket]bool{}
	for _, f := range g.wired {
		for _, in := range f.Inputs() {
			if in == g.stream || g.privs[in] || seen[in] {
				continue
			}
			seen[in] = true
			names, types := in.UserSchema()
			if !slices.Equal(names, sNames) || !slices.Equal(types, sTypes) {
				continue
			}
			if rel := in.TakeAll(); rel.Len() > 0 {
				g.stream.Append(rel)
			}
		}
	}
}

func (g *queryGroup) streamQueries() []core.StreamQuery {
	qs := make([]core.StreamQuery, len(g.scans))
	for i, m := range g.scans {
		qs[i] = m.scan.StreamQuery()
	}
	return qs
}

// setStrategy switches the engine's multi-query processing strategy and
// rewires every stream's query group accordingly (WithStrategy, `set
// strategy = …`). It can run while the engine runs; tuples already
// replicated into private baskets under the previous wiring are processed
// by their owners before the switch takes effect for them.
func (e *Engine) setStrategy(s Strategy) error {
	s, err := ParseStrategy(string(s))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.strategy == s {
		return nil
	}
	e.strategy = s
	for _, g := range e.groups {
		g.pendingReason = fmt.Sprintf("strategy switched to %s", s)
	}
	return e.rewireAllLocked()
}

// setParallelism sets the number of stream partitions partitionable
// continuous queries run over and rewires every stream's query group
// (WithParallelism, `set parallelism = N`). It can run while the engine
// runs; in-flight tuples migrate to the new wiring. P=1 restores the
// unpartitioned wiring; plans whose verdict is not partitionable keep a
// single factory regardless of P.
func (e *Engine) setParallelism(p int) error {
	if p < 1 {
		return fmt.Errorf("datacell: parallelism must be at least 1, got %d", p)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.parallelism == p && !e.autoParallel {
		return nil
	}
	e.parallelism = p
	e.autoParallel = false
	for _, g := range e.groups {
		g.pendingReason = fmt.Sprintf("parallelism pinned to %d", p)
	}
	return e.rewireAllLocked()
}

// rewireAllLocked rebuilds every stream group's wiring under the current
// strategy and parallelism. Caller holds e.mu.
func (e *Engine) rewireAllLocked() error {
	names := make([]string, 0, len(e.groups))
	for n := range e.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := e.rewireLocked(e.groups[n]); err != nil {
			return err
		}
	}
	return nil
}

// GroupInfo describes the current wiring of one stream's query group.
type GroupInfo struct {
	Stream     string
	Strategy   Strategy // effective strategy of the installed wiring
	Partitions int      // stream partitions the wiring runs over (1 = unpartitioned)
	Members    []string // group-wired (shareable) queries, wiring order
	Taps       int      // standalone consumers receiving a full replica
	// ReplicaAppended counts tuples appended to private replica baskets
	// over the group's lifetime: 0 under shared/partial wiring, about
	// members×ingested under separate wiring.
	ReplicaAppended int64
	// Routing describes how the current partitioned wiring routes tuples
	// ("round-robin", "hash(k)", "range(v)"; several comma-joined when
	// separate-strategy members carry different verdicts; "" when
	// unpartitioned). The counters below reset on every rewire: they
	// describe the installed wiring, not the group's lifetime.
	Routing string
	// Wirings is the number of partitioned baskets installed (one per
	// partitioned member under separate wiring, one group-wide under
	// shared/partial; 0 when unpartitioned).
	Wirings int
	// RoutedParts counts tuples routed into scanned partitions across all
	// wirings — the work the query clones actually see.
	RoutedParts int64
	// Pruned counts tuples the router kept from every clone because no
	// member can match them: discarded at routing when every member
	// would consume and reject them, parked in catch-all baskets
	// otherwise. Either way, work no clone ever does.
	Pruned int64
	// IngestPath describes where group-routed receptor batches currently
	// land: "stream basket" (splitter-fed) or "route-at-ingest …" when
	// decoded batches skip the splitter and go straight to partition
	// baskets. Empty when the stream has no ingest listeners.
	IngestPath string
	// Receptors reports every attached ingest shard's counters (conns,
	// frames, tuples, stalls, stall time) and delivery path, listener by
	// listener.
	Receptors []IngestStats
	// IngestTuples, IngestStalls and IngestStallTime aggregate the
	// receptor counters across all shards. They are lifetime totals; the
	// IngestWindow/…Delta fields below carry the windowed view.
	IngestTuples    int64
	IngestStalls    int64
	IngestStallTime time.Duration

	// AutoParallelism reports whether the adaptive controller drives this
	// group's partition count (`set parallelism = auto`, engine-wide or
	// per stream). CurrentP is the wiring target the controller (or the
	// static setting) currently asks for — it can exceed Partitions when
	// the group's plans are not partitionable and the wiring stays at 1.
	AutoParallelism bool
	CurrentP        int
	// Rewires counts wiring rebuilds over the group's lifetime
	// (registration, strategy/parallelism changes, controller decisions);
	// LastRewireReason says why the most recent one happened.
	Rewires          int64
	LastRewireReason string
	// Windowed ingest-load deltas, updated on each sampler tick (zero
	// until the engine has started and a tick has run, or ManualAdaptTick
	// has been called): the length of the last sampling window, the
	// ingest rate over it, and how many receptor stalls / how much stall
	// time accrued within it. Unlike the cumulative counters above these
	// answer "is the group backpressured *now*".
	IngestWindow         time.Duration
	IngestTuplesPerSec   float64
	IngestStallsDelta    int64
	IngestStallTimeDelta time.Duration
}

// groupsLocked reports the current multi-query wiring of every stream that
// has at least one continuous consumer or listener, sorted by stream name
// (Snapshot.Groups). Caller holds e.mu.
func (e *Engine) groupsLocked() []GroupInfo {
	names := make([]string, 0, len(e.groups))
	for n := range e.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]GroupInfo, 0, len(names))
	for _, n := range names {
		g := e.groups[n]
		if len(g.scans) == 0 && len(g.taps) == 0 && len(g.listeners) == 0 {
			continue
		}
		gi := GroupInfo{
			Stream:               n,
			Strategy:             g.effective,
			Partitions:           g.parallel,
			Taps:                 len(g.taps),
			AutoParallelism:      e.groupAutoLocked(g),
			CurrentP:             e.groupParallelismLocked(g),
			Rewires:              g.rewires,
			LastRewireReason:     g.lastRewireReason,
			IngestWindow:         g.rates.window,
			IngestTuplesPerSec:   g.rates.tuplesPerSec,
			IngestStallsDelta:    g.rates.stallsDelta,
			IngestStallTimeDelta: g.rates.stallTimeDelta,
		}
		if len(g.listeners) > 0 {
			gi.IngestPath = g.target().Peek().Describe()
			for _, l := range g.listeners {
				for _, st := range l.Stats() {
					gi.Receptors = append(gi.Receptors, st)
					gi.IngestTuples += st.Tuples
					gi.IngestStalls += st.Stalls
					gi.IngestStallTime += st.StallTime
				}
			}
		}
		for _, m := range g.scans {
			gi.Members = append(gi.Members, m.name)
			if m.priv != nil {
				gi.ReplicaAppended += m.priv.Stats().Appended
			}
		}
		for _, t := range g.taps {
			gi.ReplicaAppended += t.Stats().Appended
		}
		var descs []string
		for _, pb := range g.pbs {
			gi.Wirings++
			for _, p := range pb.Parts() {
				gi.RoutedParts += p.Stats().Appended
			}
			gi.Pruned += pb.Pruned()
			if d := pb.Describe(); !slices.Contains(descs, d) {
				descs = append(descs, d)
			}
		}
		gi.Routing = strings.Join(descs, ",")
		out = append(out, gi)
	}
	return out
}
