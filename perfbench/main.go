// Command perfbench is the engine's open-loop benchmark. It drives the
// public engine API from one process: generated tuples go over the
// binary wire protocol to two receptor shards on a fixed schedule that
// does not slow when the engine does, subscribers time every result row
// from the due time of the tuple behind it, and checkers compare every
// result with a reference recomputed from the seed.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload fanout --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. README.md describes
// the workloads and what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"datacell/internal/provenance"
)

func main() {
	workload := flag.String("workload", "", "workload to run: fanout, lr_agg or durable_churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured length of the run in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result files, spans and write-ahead logs")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Metrics   report `json:"metrics"`
}

// resultFile is what each run writes beside its spans.
type resultFile struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Traced     bool              `json:"traced"`
	Commit     string            `json:"commit"`
	SourceHash string            `json:"source_sha256"`
	Provenance provenance.Info   `json:"provenance"`
	Steps      []stepInfo        `json:"steps"`
	Failures   map[string]string `json:"failures"`
	Info       report            `json:"info"`
	Result     result            `json:"result"`
}

type stepInfo struct {
	Name    string  `json:"name"`
	Rate    float64 `json:"rate_eps"`
	Tuples  int64   `json:"tuples"`
	Seconds float64 `json:"scheduled_s"`
}

func mainErr(name string, seed int64, seconds, trace int, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := newRunner(w, uint64(seed), float64(seconds), dir, trace == 1)
	res, info, fails, err := r.execute()
	if err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)
	if trace == 1 {
		if err := r.tr.write(filepath.Join(out, "spans-"+tag+".jsonl")); err != nil {
			return err
		}
	}
	rf := resultFile{Workload: name, Seed: seed, Seconds: seconds, Traced: trace == 1,
		Commit: commit(), SourceHash: sourceHash("."), Provenance: provenance.Capture(),
		Failures: fails, Info: info, Result: res}
	for _, s := range r.steps {
		rf.Steps = append(rf.Steps, stepInfo{Name: s.name, Rate: s.rate, Tuples: s.tuples(), Seconds: s.length().Seconds()})
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "result-"+tag+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}

	for n, f := range fails {
		fmt.Fprintf(os.Stderr, "perfbench: check %s: %s\n", n, f)
	}
	p := rf.Provenance
	fmt.Printf("# %s seed=%d seconds=%d trace=%d commit=%s go=%s nproc=%d gomaxprocs=%d\n",
		name, seed, seconds, trace, rf.Commit, p.GoVersion, p.NumCPU, p.GOMAXPROCS)
	for _, s := range rf.Steps {
		fmt.Printf("# step %-8s %12.0f tuples/s %10d tuples over %.2fs\n", s.Name, s.Rate, s.Tuples, s.Seconds)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := info[d.name]; ok {
				fmt.Printf("%-34s %16.4f %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// commit is the checked-out git revision, or "" when the working
// directory is not the root of a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the repository's Go sources and module files, which
// identifies the code under test where there is no git revision. It is
// a label, not a check: files it cannot read are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// execute runs the set-ups and the three steps, checks the results and
// computes the metrics. It returns the printed result, every metric it
// computed (printed or not) and the checks that failed.
func (r *runner) execute() (result, report, map[string]string, error) {
	var res result
	fails := map[string]string{}
	// The set-ups are spread over half a second, so that one burst of
	// host interference does not decide setup_s and the idle ctl_* calls.
	runtime.GC()
	var g *rig
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			time.Sleep(setupGap)
		}
		rg, d, err := r.setup(i, !r.w.churn)
		if err != nil {
			return res, nil, nil, err
		}
		r.setups = append(r.setups, d)
		if i < setupRounds-1 {
			r.teardown(rg, !r.w.churn)
		} else {
			g = rg
		}
	}
	defer g.close()

	// The heap metrics cover the fixed-rate steps. In overload, results
	// pile up in the output baskets for as long as emit trails the
	// kernel, so the heap there measures how far behind emit fell, not
	// what the engine holds while it keeps up.
	runtime.GC()
	stopHeap, heap := make(chan struct{}), make(chan []uint64, 1)
	go heapSampler(stopHeap, heap)
	stopSampling := sync.OnceFunc(func() { close(stopHeap) })
	defer stopSampling()
	steps := make([]*stepResult, len(r.steps))
	for i, s := range r.steps {
		if s.overload {
			stopSampling()
		}
		steps[i] = r.runStep(g, s)
		if !steps[i].drained {
			fails["drain."+s.name] = fmt.Sprintf("results incomplete or engine busy %v after the step", drainTimeout)
		}
		if err := steps[i].send.err; err != nil {
			return res, nil, nil, fmt.Errorf("step %s: sending: %w", s.name, err)
		}
	}
	heapSamples := <-heap
	var st stResult
	if r.traced {
		var err error
		if st, err = r.replay(); err != nil {
			return res, nil, nil, fmt.Errorf("single-threaded replay: %w", err)
		}
	}

	// Failures: result rows, unsent tuples, control-call errors, rejected
	// frames, WAL append errors, firing errors and WAL/receptor
	// disagreement.
	var failed int64
	for i, c := range r.stable {
		n, detail := c.failures()
		if n > 0 {
			fails["query."+r.w.queries[i].name] = detail
		}
		failed += n
	}
	r.churnMu.Lock()
	for i, c := range r.churned {
		if n, detail := c.failures(); n > 0 {
			fails[fmt.Sprintf("query.churn_%d", i)] = detail
			failed += n
		}
	}
	r.churnMu.Unlock()
	for i, s := range steps {
		if s.send.unsent > 0 {
			fails["unsent."+r.steps[i].name] = fmt.Sprintf("%d tuples not sent by the step's end", s.send.unsent)
			failed += s.send.unsent
		}
	}
	last := steps[len(steps)-1].after
	end := totalsOf(last.snap)
	var fireErrs int64
	for _, q := range last.snap.Queries {
		fireErrs += q.Errors
	}
	other := map[string]int64{"ctl_errors": r.ctlErrs, "ingest_invalid": end.invalid,
		"wal_errors": end.walErrs, "fire_errors": fireErrs}
	if r.w.wal {
		d := int64(end.walFrames) - end.frames
		other["wal_frames_vs_decoded"] = max(d, -d)
	}
	for n, v := range other {
		if v > 0 {
			fails[n] = fmt.Sprint(v)
			failed += v
		}
	}
	res.Attempted = r.ref.keys() + r.ctlCalls
	res.Failed = failed
	res.Correct = failed == 0 && len(fails) == 0

	all := r.metrics(steps, st, heapSamples, float64(failed)/float64(res.Attempted))
	res.Metrics = report{}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = all[d.name]
	}
	return res, all, fails, nil
}

// metrics computes every end-to-end and per-layer metric of the run.
func (r *runner) metrics(steps []*stepResult, st stResult, heap []uint64, failFrac float64) report {
	m := report{}
	e2e := func(n string, v float64) { m.put(endToEnd, n, v) }
	lay := func(n string, v float64) { m.put(perLayer, n, v) }
	nom, over := steps[1], steps[2]
	nomTuples := float64(r.steps[1].measured())

	e2e("setup_s", quantile(r.setups, 0.5).Seconds())
	e2e("lat_p50_us", r.lat[1].quantile(0.50))
	lay("lat_p99_us", r.lat[1].quantile(0.99))
	e2e("lat_light_p50_us", r.lat[0].quantile(0.50))
	lay("lat_light_p99_us", r.lat[0].quantile(0.99))
	e2e("peak_eps", float64(r.steps[2].tuples())/over.end.Sub(over.origin).Seconds())
	cpu := float64(nom.after.cpu - nom.start.cpu)
	e2e("cpu_ns_per_event", cpu/nomTuples)
	slices.Sort(heap)
	e2e("heap_live_mb", float64(heap[len(heap)/2])/1e6)
	lay("heap_peak_mb", float64(heap[len(heap)-1])/1e6)
	r.ctlMu.Lock()
	// The control cost of one query's life: the median register+subscribe
	// plus the median remove. A remove takes a fraction of a register, so
	// the median of the pooled calls falls in the gap between the two
	// clusters and moved by a quarter between runs of one commit.
	e2e("ctl_p50_ms", ms(quantile(r.ctlAdd, 0.5)+quantile(r.ctlRemov, 0.5)))
	lay("ctl_p90_ms", ms(quantile(r.ctl, 0.90)))
	lay("ctl.register_ms_p50", ms(quantile(r.ctlReg, 0.5)))
	lay("ctl.subscribe_ms_p50", ms(quantile(r.ctlSub, 0.5)))
	lay("ctl.remove_ms_p50", ms(quantile(r.ctlRemov, 0.5)))
	r.ctlMu.Unlock()

	// Layers, over the measured part of the nominal step unless noted.
	a, b := totalsOf(nom.start.snap), totalsOf(nom.after.snap)
	q := nom.queries
	tuples := float64(b.tuples - a.tuples)
	frames := float64(nom.send.frames)
	lay("gen.late_p50_us", nom.send.late.quantile(0.50))
	lay("gen.late_p99_us", nom.send.late.quantile(0.99))
	lay("gen.encode_ns_per_tuple", div(float64(nom.send.encode), nomTuples))
	lay("gen.write_ns_per_tuple", div(float64(nom.send.write), nomTuples))
	lay("gen.write_stall_ms", ms(over.send.write)) // overload step
	lay("ingest.frames", float64(b.frames-a.frames))
	lay("ingest.tuples", tuples)
	lay("ingest.route_ns_per_tuple", div(float64(b.route-a.route), tuples))
	oa, ob := totalsOf(over.before.snap), totalsOf(over.after.snap)
	lay("ingest.stalls", float64(ob.stalls-oa.stalls)) // overload step
	lay("ingest.stall_ms", ms(ob.stall-oa.stall))      // overload step
	lay("ingest.invalid", float64(ob.invalid))         // whole run
	lay("wal.frames", float64(b.walFrames-a.walFrames))
	lay("wal.bytes_per_tuple", div(float64(b.walBytes-a.walBytes), tuples))
	lay("wal.syncs_per_s", div(float64(b.walSyncs-a.walSyncs), nom.after.at.Sub(nom.start.at).Seconds()))
	lay("wal.batch_frames_mean", div(float64(b.walBatchFrames-a.walBatchFrames), float64(b.walBatches-a.walBatches)))
	lay("wal.batch_frames_max", float64(ob.walMaxBatch)) // whole run
	lay("basket.high_water", float64(ob.highWater))      // whole run
	lay("basket.replica_per_tuple", div(float64(b.replica-a.replica), tuples))
	lay("basket.routed_per_tuple", div(float64(b.routed-a.routed), tuples))
	lay("basket.pruned_frac", div(float64(b.pruned-a.pruned), float64(b.routed-a.routed+b.pruned-a.pruned)))
	lay("fire.count", float64(q.fires))
	lay("fire.tuples_per_fire", div(tuples*float64(len(r.w.queries)), float64(q.fires)))
	lay("fire.busy_ns_per_tuple", div(float64(q.busy), tuples))
	lay("fire.errors", float64(q.errors))
	lay("merge.waits", float64(q.mergeWaits))
	lay("merge.wait_us_mean", div(us(q.mergeWait), float64(q.mergeWaits)))
	lay("emit.rows_per_tuple", div(float64(q.outRows), tuples))
	lay("emit.busy_ns_per_row", div(float64(q.emitBusy), float64(q.outRows)))
	lay("sub.handoff_p50_us", r.handoff[1].quantile(0.50))
	lay("sub.handoff_p99_us", r.handoff[1].quantile(0.99))
	lay("sub.callback_ns_per_row", div(float64(r.cbNs.Load()), float64(r.cbRows.Load())))
	lay("engine.rewires", float64(b.rewires-a.rewires))
	lay("rt.alloc_bytes_per_tuple", div(float64(nom.after.alloc-nom.start.alloc), tuples))
	lay("rt.gc_cycles", float64(nom.after.gcs-nom.start.gcs))
	lay("rt.gc_pause_ms", ms(nom.after.pause-nom.start.pause))
	lay("host.steal_pct", 100*div(float64(nom.after.steal-nom.start.steal), float64(nom.after.ticks-nom.start.ticks)))

	stT := float64(st.tuples)
	lay("st.decode_ns_per_tuple", div(float64(st.decode), stT))
	lay("st.wal_ns_per_tuple", div(float64(st.wal), stT))
	lay("st.append_ns_per_tuple", div(float64(st.append), stT))
	lay("st.fire_ns_per_tuple", div(float64(st.fire), stT))
	lay("st.eps", div(stT, (st.decode+st.append+st.fire).Seconds()))

	// The ledger: what the outside view can attribute of the CPU cost and
	// of the median latency. The emitter's busy time includes the
	// subscriber callbacks.
	layers := float64(nom.send.encode+nom.send.write+(b.route-a.route)+q.busy+q.emitBusy) / nomTuples
	lay("ledger.unaccounted_ns_per_tuple", cpu/nomTuples-layers)
	late, write, hand := nom.send.late.quantile(0.5), div(us(nom.send.write), frames), r.handoff[1].quantile(0.5)
	lay("ledger.lat_gen_late_us", late)
	lay("ledger.lat_write_us", write)
	lay("ledger.lat_handoff_us", hand)
	lay("ledger.lat_engine_us", r.lat[1].quantile(0.5)-late-write-hand)

	if nom.mid.at.IsZero() {
		lay("trace.overhead_ns_per_tuple", 0)
	} else {
		s := r.steps[1]
		half := float64((s.firstAt(r.midpoint(s)) - s.firstAt(s.warm)) * frameTuples)
		untraced := float64(nom.mid.cpu-nom.start.cpu) / half
		traced := float64(nom.after.cpu-nom.mid.cpu) / (nomTuples - half)
		lay("trace.overhead_ns_per_tuple", traced-untraced)
	}
	lay("trace.spans", float64(r.tr.count()))
	lay("trace.spans_dropped", float64(r.tr.dropped.Load()))
	lay("nominal.drain_ms", ms(nom.end.Sub(nom.origin.Add(r.steps[1].length()))))
	lay("fail_frac", failFrac)
	return m
}
