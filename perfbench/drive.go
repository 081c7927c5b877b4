package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datacell"
)

const (
	// sendGrace is how far past a fixed-rate step's scheduled end a frame
	// may still finish its write before its tuples count as unsent.
	sendGrace    = 100 * time.Millisecond
	churnEvery   = 250 * time.Millisecond
	drainTimeout = 20 * time.Second
	// setupRounds is how many engines a run sets up; setup_s is their
	// median. Where a workload has no churn, the control calls of these
	// set-ups and their teardowns are what ctl_* measure: every workload
	// has at least three queries, so that is well over the 100 calls
	// ctl_p90_ms needs to have ten beyond it.
	setupRounds = 25
	setupGap    = 20 * time.Millisecond
	// walSyncInterval is the WAL's group-commit window. The log holds its
	// mutex across fsync, so every receptor delivery waits behind the
	// disk; at the default 2ms window that wait decided the median
	// latency, which then swung 290–1100µs between runs with the virtual
	// disk. At 20ms the coupling shows in the tail (lat_p99_us) and in
	// wal.*, and the median tracks the engine. See README.md.
	walSyncInterval = 20 * time.Millisecond
)

// runner drives one run of one workload: repeated set-ups, then the
// light, nominal and overload steps against the last engine set up.
type runner struct {
	w      *workload
	seed   uint64
	steps  []step
	ref    *reference
	dir    string // temporary directory for write-ahead logs
	epoch  time.Time
	tr     *tracer
	traced bool

	origins [3]atomic.Int64 // step origins, ns since epoch
	lat     [3]*latHist     // due time → subscriber receipt, per step
	handoff [3]*latHist     // Emit.EmitTime → subscriber receipt, per step
	cbNs    atomic.Int64    // subscriber callback time while tracing
	cbRows  atomic.Int64

	queries queryLedger

	stable  []checker // one per workload query
	churnMu sync.Mutex
	churned []checker

	ctlMu                         sync.Mutex
	ctl, ctlReg, ctlSub, ctlRemov []time.Duration
	ctlAdd                        []time.Duration // register+subscribe
	ctlCalls                      int64
	ctlErrs                       int64
	setups                        []time.Duration
}

func newRunner(w *workload, seed uint64, seconds float64, dir string, traced bool) *runner {
	epoch := time.Now()
	r := &runner{w: w, seed: seed, steps: plan(w.rates, seconds), dir: dir, epoch: epoch,
		tr: newTracer(epoch), traced: traced}
	r.tr.enabled = traced
	for i := range r.lat {
		r.lat[i] = newLatHist(time.Microsecond)
		r.handoff[i] = newLatHist(10 * time.Nanosecond)
	}
	r.ref = &reference{w: w, seed: seed, steps: r.steps}
	for _, q := range w.queries {
		r.stable = append(r.stable, q.check(r.ref))
	}
	return r
}

// rig is one engine set up for the workload, with its sender connections.
type rig struct {
	eng    *datacell.Engine
	lst    *datacell.IngestListener
	conns  []net.Conn
	walDir string
}

func (g *rig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	g.eng.Stop()
	if g.walDir != "" {
		os.RemoveAll(g.walDir)
	}
}

// setup builds an engine from New until the first tuple can be sent:
// DDL, registrations, subscriptions, listeners, Start (which opens the
// WAL when the workload is durable) and the sender connections.
func (r *runner) setup(round int, recordCtl bool) (*rig, time.Duration, error) {
	opts := append([]datacell.Option(nil), r.w.options...)
	var walDir string
	if r.w.wal {
		walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", round))
		opts = append(opts, datacell.WithWALOptions(datacell.WALOptions{Dir: walDir, SyncInterval: walSyncInterval}))
	}
	start := time.Now()
	g := &rig{eng: datacell.New(opts...), walDir: walDir}
	fail := func(err error) (*rig, time.Duration, error) {
		g.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := g.eng.Err(); err != nil {
		return fail(err)
	}
	if _, err := g.eng.Exec(r.w.schema.ddl(r.w.stream)); err != nil {
		return fail(err)
	}
	for i, q := range r.w.queries {
		if err := r.register(g.eng, q.name, q.sql, r.stable[i], recordCtl); err != nil {
			return fail(err)
		}
	}
	lst, err := g.eng.ListenIngest(r.w.stream, "127.0.0.1:0", datacell.IngestOptions{Shards: conns, BatchSize: frameTuples})
	if err != nil {
		return fail(err)
	}
	g.lst = lst
	if err := g.eng.Start(); err != nil {
		return fail(err)
	}
	for _, a := range lst.Addrs() {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return fail(err)
		}
		g.conns = append(g.conns, c)
	}
	return g, time.Since(start), nil
}

// teardown retires a throwaway set-up, removing its queries one by one.
func (r *runner) teardown(g *rig, recordCtl bool) {
	for _, q := range r.w.queries {
		r.remove(g.eng, q.name, recordCtl)
	}
	g.close()
}

// register registers and subscribes one query, timing both calls.
func (r *runner) register(eng *datacell.Engine, name, sql string, c checker, record bool) error {
	t0 := time.Now()
	err := eng.RegisterQuery(name, sql)
	t1 := time.Now()
	if err == nil {
		_, err = eng.SubscribeQuery(name, datacell.SubscribeOptions{OnEmit: r.subscriber(c)})
	}
	t2 := time.Now()
	r.tr.add("ctl.register", 0, 0, t0, t1)
	r.tr.add("ctl.subscribe", 0, 0, t1, t2)
	r.ctlMu.Lock()
	defer r.ctlMu.Unlock()
	if record {
		r.ctlReg = append(r.ctlReg, t1.Sub(t0))
		r.ctlSub = append(r.ctlSub, t2.Sub(t1))
		r.ctlAdd = append(r.ctlAdd, t2.Sub(t0))
		r.ctl = append(r.ctl, t2.Sub(t0))
		r.ctlCalls++
		if err != nil {
			r.ctlErrs++
		}
	}
	if err != nil {
		return fmt.Errorf("registering %s: %w", name, err)
	}
	return nil
}

func (r *runner) remove(eng *datacell.Engine, name string, record bool) {
	t0 := time.Now()
	err := eng.RemoveQuery(name)
	t1 := time.Now()
	r.tr.add("ctl.remove", 0, 0, t0, t1)
	if !record {
		return
	}
	r.ctlMu.Lock()
	defer r.ctlMu.Unlock()
	r.ctlRemov = append(r.ctlRemov, t1.Sub(t0))
	r.ctl = append(r.ctl, t1.Sub(t0))
	r.ctlCalls++
	if err != nil {
		r.ctlErrs++
	}
}

// subscriber is a query's OnEmit callback: it records the latency of
// every row carrying sts (the due time of its newest contributing tuple)
// and hands the rows to the query's checker.
func (r *runner) subscriber(c checker) func(datacell.Emit) {
	return func(em datacell.Emit) {
		recv := time.Now()
		si := -1
		if sc := colIndex(em.Table.Cols, "sts"); sc >= 0 {
			now := int64(recv.Sub(r.epoch))
			for _, row := range em.Table.Rows {
				sts, ok := row[sc].(int64)
				if !ok {
					continue // max(sts) over no tuples
				}
				i, off := int(sts/stsStep), sts%stsStep
				if i < 0 || i >= len(r.steps) || off < r.steps[i].warm.Microseconds() {
					continue
				}
				r.lat[i].record(time.Duration(now - r.origins[i].Load() - off*1000))
				si = i
			}
		}
		if si >= 0 {
			r.handoff[si].record(recv.Sub(em.EmitTime))
		}
		c.observe(em.Table)
		if r.tr.hot.Load() {
			end := time.Now()
			r.cbNs.Add(int64(end.Sub(recv)))
			r.cbRows.Add(int64(len(em.Table.Rows)))
			var parent int64
			if ki := colIndex(em.Table.Cols, "k"); ki >= 0 && len(em.Table.Rows) > 0 {
				if k, ok := em.Table.Rows[0][ki].(int64); ok {
					if s, g, ok := stepOf(r.steps, k); ok {
						parent = frameID(s, g)
					}
				}
			}
			r.tr.add("sub.callback", 0, parent, recv, end)
		}
	}
}

// sendStats is one sender connection's account of one step.
type sendStats struct {
	late          *latHist // due time → write start, per frame; shared by the step's senders
	encode, write time.Duration
	frames        int64
	unsent        int64 // tuples not written by the step's end (fixed-rate steps)
	err           error
}

// send writes connection c's frames of step s, each at its due time.
// Frames are built ahead of their due time, so lateness measures the
// sender's scheduling and the socket, not the encoder.
func (r *runner) send(conn net.Conn, c int, s step, origin time.Time, st *sendStats) {
	fe := newFrameEncoder(r.w, r.seed)
	p, err := newPacer()
	if err != nil {
		st.err = err
		return
	}
	defer p.close()
	deadline := origin.Add(s.length() + sendGrace)
	for g := int64(c); g < s.frames; g += conns {
		t0 := time.Now()
		buf, err := fe.encode(s, g)
		t1 := time.Now()
		if err == nil {
			if d := origin.Add(s.dueOffset(g)).Sub(t1); d > 0 {
				err = p.sleep(d)
			}
		}
		t2 := time.Now()
		if err == nil {
			_, err = conn.Write(buf)
		}
		t3 := time.Now()
		if err != nil {
			st.err = err
			st.unsent += (s.frames - g + conns - 1) / conns * frameTuples
			return
		}
		if !s.overload && t3.After(deadline) {
			st.unsent += frameTuples
		}
		if s.dueOffset(g) < s.warm {
			continue
		}
		st.late.record(t2.Sub(origin.Add(s.dueOffset(g))))
		st.encode += t1.Sub(t0)
		st.write += t3.Sub(t2)
		st.frames++
		if r.tr.hot.Load() {
			id := frameID(s.idx, g)
			r.tr.add("gen.encode", id, 0, t0, t1)
			r.tr.add("gen.write", id, 0, t2, t3)
		}
	}
}

// churn registers and subscribes a fresh query every churnEvery and
// removes the previous one, until stop closes.
func (r *runner) churn(eng *datacell.Engine, stop <-chan struct{}) {
	t := time.NewTicker(churnEvery)
	defer t.Stop()
	prev := ""
	for i := 0; ; i++ {
		select {
		case <-stop:
			if prev != "" {
				r.queries.close(eng.Snapshot())
				r.remove(eng, prev, true)
				r.queries.open(eng.Snapshot())
			}
			return
		case <-t.C:
		}
		q := churnQuery(i)
		c := q.check(r.ref)
		r.churnMu.Lock()
		r.churned = append(r.churned, c)
		r.churnMu.Unlock()
		r.queries.close(eng.Snapshot())
		if r.register(eng, q.name, q.sql, c, true) == nil {
			if prev != "" {
				r.remove(eng, prev, true)
			}
			prev = q.name
		}
		r.queries.open(eng.Snapshot())
	}
}

// queryLedger sums per-query activity across rewires. A rewire starts
// fresh factories and restarts their counters, so the churn loop closes
// a segment just before each rewire and opens the next just after.
type queryLedger struct {
	mu   sync.Mutex
	mark datacell.Snapshot
	sum  queryDelta
}

func (l *queryLedger) reset(s datacell.Snapshot) {
	l.mu.Lock()
	l.mark, l.sum = s, queryDelta{}
	l.mu.Unlock()
}

func (l *queryLedger) open(s datacell.Snapshot) {
	l.mu.Lock()
	l.mark = s
	l.mu.Unlock()
}

// close adds the segment ending at s and returns the running sum.
func (l *queryLedger) close(s datacell.Snapshot) queryDelta {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum.add(queriesBetween(l.mark, s))
	l.mark = s
	return l.sum
}

// probe is the engine and process state at a step boundary.
type probe struct {
	at    time.Time
	snap  datacell.Snapshot
	cpu   time.Duration // process user+sys
	alloc uint64        // cumulative heap bytes allocated
	gcs   uint64
	pause time.Duration // cumulative GC stop-the-world time
	// Machine-wide CPU ticks, and the part of them the hypervisor gave
	// to other guests (/proc/stat steal).
	ticks, steal uint64
}

// hostTicks reads the machine's total and stolen CPU ticks.
func hostTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *runner) probe(eng *datacell.Engine) probe {
	t0 := time.Now()
	p := probe{snap: eng.Snapshot()}
	t1 := time.Now()
	r.tr.add("engine.snapshot", 0, 0, t0, t1)
	p.cpu = processCPU()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	p.alloc, p.gcs = s[0].Value.Uint64(), s[1].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.pause = time.Duration(ms.PauseTotalNs)
	p.ticks, p.steal = hostTicks()
	p.at = time.Now()
	return p
}

// stepResult is what one step measured.
type stepResult struct {
	origin, end time.Time // end: every stable query has delivered its results
	drained     bool      // all results arrived and the engine drained
	send        sendStats
	before      probe // step start
	start       probe // end of the warm-up: measuring starts
	mid         probe // traced nominal step: where tracing switched on
	after       probe
	queries     queryDelta // per-query activity from start to after
}

func (r *runner) runStep(g *rig, s step) *stepResult {
	res := &stepResult{}
	res.before = r.probe(g.eng)
	origin := time.Now().Add(5 * time.Millisecond)
	r.origins[s.idx].Store(int64(origin.Sub(r.epoch)))
	res.origin = origin
	res.send.late = newLatHist(time.Microsecond)
	stats := make([]sendStats, conns)
	for i := range stats {
		stats[i].late = res.send.late
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.send(g.conns[c], c, s, origin, &stats[c])
		}(c)
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	nominal := s.name == "nominal"
	res.start = res.before
	r.queries.reset(res.start.snap)
	bg.Add(1)
	go func() {
		defer bg.Done()
		if s.warm > 0 && !at(origin.Add(s.warm), stop) {
			return
		}
		res.start = r.probe(g.eng)
		r.queries.reset(res.start.snap)
		if r.w.churn && nominal {
			bg.Add(1)
			go func() { defer bg.Done(); r.churn(g.eng, stop) }()
		}
		// In a traced run the first half of the measured nominal step runs
		// untraced and the second traced; the CPU cost per tuple of the two
		// halves gives the overhead.
		if r.traced && nominal && at(origin.Add(r.midpoint(s)), stop) {
			res.mid = r.probe(g.eng)
			r.tr.hot.Store(true)
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()
	res.drained = r.awaitResults(s.idx)
	res.end = time.Now()
	// Every result has arrived; the net must also be quiescent (Drain
	// also checkpoints the WAL).
	res.drained = g.eng.Drain(drainTimeout) && res.drained
	r.tr.hot.Store(false)
	res.after = r.probe(g.eng)
	res.queries = r.queries.close(res.after.snap)
	for i := range stats {
		st := &stats[i]
		res.send.encode += st.encode
		res.send.write += st.write
		res.send.frames += st.frames
		res.send.unsent += st.unsent
		if st.err != nil && res.send.err == nil {
			res.send.err = st.err
		}
	}
	return res
}

// at waits until t, reporting false if stop closes first.
func at(t time.Time, stop <-chan struct{}) bool {
	tm := time.NewTimer(time.Until(t))
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-stop:
		return false
	}
}

// midpoint splits the measured part of step s in two.
func (r *runner) midpoint(s step) time.Duration { return (s.warm + s.length()) / 2 }

// awaitResults waits until every stable query has delivered all results
// expected up to the end of step si.
func (r *runner) awaitResults(si int) bool {
	deadline := time.Now().Add(drainTimeout)
	for {
		done := true
		for _, c := range r.stable {
			if c.units() < c.want(si) {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// heapSampler samples the live heap every 10ms until stop closes and
// returns the samples.
func heapSampler(stop <-chan struct{}, out chan<- []uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var got []uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		got = append(got, s[0].Value.Uint64())
		select {
		case <-stop:
			out <- got
			return
		case <-t.C:
		}
	}
}
