package datacell

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// AdaptResult is one mode of the adaptive ramp benchmark
// (`microbench -fig adapt`): the same stepped load profile run under one
// parallelism policy.
type AdaptResult struct {
	Mode       string // "static-1", "static-4", "auto"
	Strategy   Strategy
	Tuples     int
	Elapsed    time.Duration
	Throughput float64 // stream tuples per second, feed to drain
	Results    int     // result tuples across all queries
	Rewires    int64   // wiring rebuilds over the run (controller + setup)
	FinalP     int     // partition target when the run ended
	MaxP       int     // highest partition target observed during the run
}

// RunAdapt measures one parallelism policy against a ramp workload: the
// feed steps between trickle phases (rate-limited, the group near idle)
// and burst phases (closed-loop, the group backpressured), which is the
// profile static settings cannot win — P=1 saturates in the bursts,
// wide static P pays routing and merge overhead in the troughs (and on a
// small box loses outright, as the committed BENCH_agg sweep shows).
// Mode is "auto" or "static-N". The auto controller runs with
// benchmark-timescale options; its cap stays min(4, GOMAXPROCS) so a
// one-core box never scales past the P=1 baseline.
func RunAdapt(mode string, tuples int, seed int64) (AdaptResult, error) {
	opts := []Option{WithStrategy(StrategySeparate)}
	auto := mode == "auto"
	if auto {
		maxP := 4
		if n := runtime.GOMAXPROCS(0); n < maxP {
			maxP = n
		}
		opts = append(opts, WithAdaptOptions(AdaptOptions{
			Tick:           5 * time.Millisecond,
			HighWater:      8192,
			LowWater:       1024,
			Patience:       2,
			Cooldown:       50 * time.Millisecond,
			MaxParallelism: maxP,
		}), WithParallelismAuto())
	} else {
		var p int
		if _, err := fmt.Sscanf(mode, "static-%d", &p); err != nil {
			return AdaptResult{}, fmt.Errorf("datacell: adapt mode %q (want \"auto\" or \"static-N\")", mode)
		}
		opts = append(opts, WithParallelism(p))
	}
	eng := New(opts...)
	defer eng.Stop()
	if err := eng.Err(); err != nil {
		return AdaptResult{}, err
	}
	if _, err := eng.Exec(`create basket s (k int, v int)`); err != nil {
		return AdaptResult{}, err
	}
	queries := []NamedQuery{
		{Name: "rng", SQL: `select t.v from [select * from s where v >= 20000 and v < 60000] t`},
		{Name: "agg", SQL: `select t.k, avg(t.v) as a, count(*) as n from [select * from s where v < 80000] t group by t.k`},
		{Name: "rr", SQL: `select t.k, t.v from [select * from s] t where t.v % 2 = 0`},
	}
	if err := eng.RegisterQueries(queries); err != nil {
		return AdaptResult{}, err
	}
	if err := eng.Start(); err != nil {
		return AdaptResult{}, err
	}

	// Ramp profile: trickle 10%, burst 40%, trickle 10%, burst 40%.
	type phase struct {
		frac  float64
		burst bool
	}
	phases := []phase{{0.1, false}, {0.4, true}, {0.1, false}, {0.4, true}}
	rng := rand.New(rand.NewSource(seed))
	maxP := 1
	observe := func() {
		for _, g := range eng.Snapshot().Groups {
			if g.Stream == "s" && g.CurrentP > maxP {
				maxP = g.CurrentP
			}
		}
	}
	feed := func(n, batch int, pause time.Duration) error {
		rows := make([]Row, 0, batch)
		for fed := 0; fed < n; {
			m := min(batch, n-fed)
			rows = rows[:0]
			for i := 0; i < m; i++ {
				rows = append(rows, Row{rng.Int63n(256), rng.Int63n(100_000)})
			}
			if err := eng.Append("s", rows...); err != nil {
				return err
			}
			fed += m
			observe()
			if pause > 0 {
				time.Sleep(pause)
			}
		}
		return nil
	}
	start := time.Now()
	for _, ph := range phases {
		n := int(float64(tuples) * ph.frac)
		if ph.burst {
			if err := feed(n, 5000, 0); err != nil {
				return AdaptResult{}, err
			}
		} else if err := feed(n, 500, 2*time.Millisecond); err != nil {
			return AdaptResult{}, err
		}
	}
	if !eng.Drain(120 * time.Second) {
		return AdaptResult{}, fmt.Errorf("datacell: adapt run (%s) did not drain", mode)
	}
	elapsed := time.Since(start)
	observe()
	res := AdaptResult{
		Mode:       mode,
		Strategy:   StrategySeparate,
		Tuples:     tuples,
		Elapsed:    elapsed,
		Throughput: float64(tuples) / elapsed.Seconds(),
		MaxP:       maxP,
		FinalP:     1,
	}
	for _, nq := range queries {
		out, err := eng.Out(nq.Name)
		if err != nil {
			return AdaptResult{}, err
		}
		res.Results += out.Len()
	}
	for _, g := range eng.Snapshot().Groups {
		if g.Stream == "s" {
			res.Rewires = g.Rewires
			res.FinalP = g.CurrentP
		}
	}
	return res, nil
}
