package main

import (
	"fmt"

	"datacell"
	"datacell/internal/bat"
)

// workload is one engine configuration, stream shape, query set and
// offered-rate table. README.md records why each exists and which layer
// it loads.
type workload struct {
	name    string
	why     string
	stream  string
	schema  schema
	fill    func(rel *bat.Relation, seed uint64, k0 int64, n int, sts int64)
	value   func(seed uint64, k int64, col string) (int64, bool) // column col of tuple k
	options []datacell.Option
	wal     bool
	churn   bool // register+subscribe a fresh query and remove the previous one every churnEvery during nominal
	queries []query
	// rates are absolute, chosen once from peak measurements of the
	// engine at the commit that introduced the benchmark (2 vCPUs):
	// light ≈ 2% of peak, nominal ≈ 8%, overload ≈ 3×. Nominal sits
	// below the 15–25% first aimed at because there the median latency
	// followed the hypervisor's share of the host (README.md).
	rates rates
}

// query is one continuous query and the checker that verifies its output.
type query struct {
	name, sql string
	check     func(r *reference) checker
}

// Every filter sits outside the basket expression. A predicate inside it
// leaves non-matching tuples resident at P=1, so firing cost would grow
// with run length (see README.md).
func filterSQL(cols, stream, where string) string {
	return fmt.Sprintf("select %s from [select * from %s] t where %s", cols, stream, where)
}

func fanPred(lo, hi int64) func(seed uint64, k int64) bool {
	return func(seed uint64, k int64) bool { v := fanV(seed, k); return v >= lo && v < hi }
}

func fanValue(seed uint64, k int64, col string) (int64, bool) {
	switch col {
	case "k":
		return k, true
	case "v":
		return fanV(seed, k), true
	}
	return 0, false
}

func lrValue(seed uint64, k int64, col string) (int64, bool) {
	t := lrFields(seed, k)
	switch col {
	case "k":
		return k, true
	case "car":
		return t.car, true
	case "xway":
		return t.xway, true
	case "dir":
		return t.dir, true
	case "seg":
		return t.seg, true
	case "spd":
		return t.spd, true
	case "typ":
		return t.typ, true
	case "time":
		return t.time, true
	}
	return 0, false
}

// fanFilter is a filter/projection query over the fan-out shape passing
// v in [lo,hi).
func fanFilter(name, cols string, lo, hi int64) query {
	where := fmt.Sprintf("t.v >= %d and t.v < %d", lo, hi)
	if lo == 0 && hi >= 1000 {
		where = "t.v >= 0"
	}
	pred := fanPred(lo, hi)
	return query{name: name, sql: filterSQL(cols, "s", where),
		check: func(r *reference) checker { return newFilterCheck(r, pred) }}
}

// churnQuery is the i-th query durable_churn registers under load.
func churnQuery(i int) query {
	hi := int64(20 + 10*(i%5))
	q := fanFilter(fmt.Sprintf("churn_%d", i), "t.k, t.v, t.sts", 0, hi)
	pred := fanPred(0, hi)
	q.check = func(r *reference) checker { return newChurnCheck(r, pred) }
	return q
}

func lrStopped(seed uint64, k int64) bool {
	t := lrFields(seed, k)
	return t.typ == 0 && t.spd == 0
}

var workloads = []*workload{
	{
		name:   "fanout",
		why:    "8 overlapping filters on one shared basket: decode, route, shared scan, wake-up, emit and subscriber handoff dominate; the kernel idles",
		stream: "s", schema: fanSchema, fill: fillFan, value: fanValue,
		options: []datacell.Option{datacell.WithStrategy(datacell.StrategyShared), datacell.WithParallelism(1)},
		queries: []query{
			fanFilter("all", "t.k, t.v, t.sts", 0, 1000),
			fanFilter("lt10", "t.k, t.sts", 0, 10),
			fanFilter("lt30", "t.k, t.v, t.sts", 0, 30),
			fanFilter("lt50", "t.k, t.sts", 0, 50),
			fanFilter("ge900", "t.k, t.v, t.sts", 900, 1000),
			fanFilter("mid", "t.k, t.sts", 480, 520),
			fanFilter("ge940", "t.k, t.v, t.sts", 940, 1000),
			fanFilter("band", "t.v, t.k, t.sts", 200, 280),
		},
		rates: rates{light: 40_000, nominal: 160_000, overload: 6_000_000},
	},
	{
		name:   "lr_agg",
		why:    "Linear Road segment statistics at P=2: relop grouping, hash routing and the two-phase merge barrier dominate; few rows are emitted",
		stream: "pos", schema: lrSchema, fill: fillLR, value: lrValue,
		options: []datacell.Option{datacell.WithParallelism(2)},
		queries: []query{
			{name: "segstats", sql: `select t.xway, t.dir, t.seg, t.time / 60 as minute, avg(t.spd) as lav, count(*) as cars, max(t.sts) as sts
				from [select * from pos] t where t.typ = 0
				group by t.xway, t.dir, t.seg, t.time / 60`,
				check: func(r *reference) checker { return newSegCheck(r) }},
			{name: "stopped", sql: filterSQL("t.k, t.car, t.seg, t.sts", "pos", "t.typ = 0 and t.spd = 0"),
				check: func(r *reference) checker { return newFilterCheck(r, lrStopped) }},
			{name: "balance", sql: `select count(*) as n, max(t.sts) as sts from [select * from pos] t where t.typ = 2`,
				check: func(r *reference) checker {
					return newCountCheck(r, func(seed uint64, k int64) bool { return lrFields(seed, k).typ == 2 })
				}},
		},
		rates: rates{light: 17_000, nominal: 70_000, overload: 2_500_000},
	},
	{
		name:   "durable_churn",
		why:    "WAL tee and group-commit fsync, per-query replicas and a query registered and removed every 250ms under nominal load",
		stream: "s", schema: fanSchema, fill: fillFan, value: fanValue,
		options: []datacell.Option{datacell.WithStrategy(datacell.StrategySeparate), datacell.WithParallelism(1)},
		wal:     true, churn: true,
		queries: []query{
			fanFilter("all", "t.k, t.v, t.sts", 0, 1000),
			fanFilter("hot", "t.k, t.sts", 0, 100),
		},
		rates: rates{light: 30_000, nominal: 150_000, overload: 4_500_000},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
