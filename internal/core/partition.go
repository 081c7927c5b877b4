package core

import (
	"fmt"
	"sync/atomic"

	"datacell/internal/basket"
	"datacell/internal/bat"
)

// NewPartitionSplitter builds the fan-out transition of partitioned stream
// execution: every firing moves all tuples of `in` into the partitions of
// pb (round-robin, hash or range routing; a pruning router additionally
// keeps tuples no query can match from every clone, discarding them or
// parking them in pb's catch-all basket). A guard defers the firing while any partition is disabled
// — a shared-baskets cycle is mid-flight on it and appending would let
// that cycle's readers see different snapshots — and re-enabling a
// partition pings the splitter, so deferred tuples never strand.
func NewPartitionSplitter(name string, in *basket.Basket, pb *basket.PartitionedBasket) (*Factory, error) {
	parts := pb.Parts()
	var spare *bat.Relation
	f, err := NewFactory(name, []*basket.Basket{in}, pb.Destinations(), func(ctx *Context) error {
		rel := ctx.In(0).ExchangeLocked(spare)
		spare = rel
		if rel.Len() == 0 {
			return nil
		}
		_, err := pb.AppendLocked(rel)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.SetGuard(func(*Context) bool {
		for _, p := range parts {
			if !p.EnabledLocked() {
				return false
			}
		}
		return true
	})
	for _, p := range parts {
		p.SetOnEnable(f.ping)
	}
	return f, nil
}

// NewMergeEmitter builds the fan-in transition of partitioned execution:
// it fires as soon as any staging basket holds tuples and concatenates
// everything present into the query's result basket, in partition order.
func NewMergeEmitter(name string, staging []*basket.Basket, out *basket.Basket) (*Factory, error) {
	spares := make([]*bat.Relation, len(staging))
	f, err := NewFactory(name, staging, []*basket.Basket{out}, func(ctx *Context) error {
		for i := 0; i < ctx.NumIn(); i++ {
			rel := ctx.In(i).ExchangeLocked(spares[i])
			spares[i] = rel
			if rel.Len() == 0 {
				continue
			}
			if _, err := ctx.Out(0).AppendLocked(rel); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.SetFireAnyInput()
	return f, nil
}

// Partitioned is the factory network of one partitioned multi-query
// wiring: the splitter, the per-partition strategy wirings writing into
// per-(query, partition) staging baskets, and one merge emitter per query.
type Partitioned struct {
	Splitter *Factory
	Parts    []*basket.Basket
	// CatchAll is the pruning router's residual basket (nil when nothing
	// is pruned or pruned tuples are discarded): the splitter parks
	// tuples no query of the wiring can match there, and no clone ever
	// scans it.
	CatchAll *basket.Basket
	// Staging and QueryFs are indexed [query][partition]: the staging
	// result basket and the clone factory executing that query on that
	// partition.
	Staging [][]*basket.Basket
	QueryFs [][]*Factory
	Merges  []*Factory
	// Factories is every factory of the wiring in registration order.
	Factories []*Factory
}

// PartitionedShared replicates the shared-baskets strategy (Figure 2b)
// over the partitions of pb: the splitter shards stream `in`, each
// partition runs an independent locker/readers/unlocker cycle over clones
// of the queries, and merge emitters concatenate the per-partition results
// into each query's result basket.
func PartitionedShared(prefix string, in *basket.Basket, pb *basket.PartitionedBasket, queries []StreamQuery) (*Partitioned, error) {
	return partitioned(prefix, in, pb, queries, SharedBaskets, 1, false)
}

// PartitionedPartial replicates the partial-deletes strategy (Figure 2c)
// over the partitions of pb: one delete chain per partition.
func PartitionedPartial(prefix string, in *basket.Basket, pb *basket.PartitionedBasket, queries []StreamQuery) (*Partitioned, error) {
	return partitioned(prefix, in, pb, queries, PartialDeletes, 0, true)
}

// PartitionedQuery wires a single query over the partitions of pb in the
// separate-baskets style: the splitter shards `in` (the query's exclusive
// replica), one clone per partition consumes its partition, and a merge
// emitter concatenates the staged results into the query's result basket.
func PartitionedQuery(prefix string, in *basket.Basket, pb *basket.PartitionedBasket, q StreamQuery) (*Partitioned, error) {
	return partitioned(prefix, in, pb, []StreamQuery{q},
		func(p string, part *basket.Basket, qs []StreamQuery) ([]*Factory, error) {
			f, err := NewStreamQueryFactory(p+".q."+qs[0].Name, part, qs[0])
			if err != nil {
				return nil, err
			}
			return []*Factory{f}, nil
		}, 0, false)
}

// partitioned wires the generic partitioned topology. base builds one
// partition's strategy wiring; qOffset locates query i's factory in base's
// result (SharedBaskets returns [locker, readers…, unlocker], so 1;
// PartialDeletes returns the queries in order, so 0). chained marks base
// wirings where query i+1's feed is filled by query i's firing (the
// partial-deletes residue chain): a combining merge must then wait for the
// whole upstream chain to settle, not just its own feed, because a settled
// chain basket can still be owed residue from upstream.
func partitioned(prefix string, in *basket.Basket, pb *basket.PartitionedBasket, queries []StreamQuery,
	base func(string, *basket.Basket, []StreamQuery) ([]*Factory, error), qOffset int, chained bool) (*Partitioned, error) {

	split, err := NewPartitionSplitter(prefix+".split", in, pb)
	if err != nil {
		return nil, err
	}
	parts := pb.Parts()
	p := len(parts)
	pw := &Partitioned{
		Splitter:  split,
		Parts:     parts,
		CatchAll:  pb.CatchAll(),
		Staging:   make([][]*basket.Basket, len(queries)),
		QueryFs:   make([][]*Factory, len(queries)),
		Factories: []*Factory{split},
	}
	combining := false
	for _, q := range queries {
		if q.Combine != nil {
			combining = true
			break
		}
	}
	// With any two-phase query in the wiring, every clone firing reports
	// its feed progress so the combining merges can hold the round barrier
	// — including clones of non-combining queries, whose firings move the
	// residue chain a downstream combining merge waits on.
	var track *progress
	if combining {
		track = newProgress(len(queries), p)
	}
	for qi, q := range queries {
		names, types := q.Out.UserSchema()
		if q.Combine != nil {
			names, types = q.Combine.Names, q.Combine.Types
		}
		pw.Staging[qi] = make([]*basket.Basket, p)
		pw.QueryFs[qi] = make([]*Factory, p)
		for k := 0; k < p; k++ {
			pw.Staging[qi][k] = basket.New(fmt.Sprintf("%s.stage.%s.%d", prefix, q.Name, k), names, types)
		}
	}
	for k := 0; k < p; k++ {
		clones := make([]StreamQuery, len(queries))
		for qi, q := range queries {
			q.Out = pw.Staging[qi][k]
			if q.Combine != nil {
				q.Fire = q.Combine.Partial
			}
			if track != nil {
				orig := q.Fire
				qi, k := qi, k
				q.Fire = func(in, out *basket.Basket, report func(covered []int32)) error {
					err := orig(in, out, report)
					// The feed's appended counter is read under the clone's
					// held input lock: exactly what this firing could see.
					track.done(qi, k, in.AppendedLocked())
					return err
				}
			}
			clones[qi] = q
		}
		fs, err := base(fmt.Sprintf("%s.p%d", prefix, k), parts[k], clones)
		if err != nil {
			return nil, err
		}
		for qi := range queries {
			pw.QueryFs[qi][k] = fs[qOffset+qi]
		}
		pw.Factories = append(pw.Factories, fs...)
	}
	for qi, q := range queries {
		var merge *Factory
		var err error
		if q.Combine != nil {
			lo := qi
			if chained {
				lo = 0
			}
			var feeds []*basket.Basket
			var seen []*atomic.Int64
			for j := lo; j <= qi; j++ {
				for k := 0; k < p; k++ {
					feeds = append(feeds, pw.QueryFs[j][k].Inputs()[0])
					seen = append(seen, &track.seen[j][k])
				}
			}
			merge, err = NewCombiningMergeEmitter(fmt.Sprintf("%s.merge.%s", prefix, q.Name),
				pw.Staging[qi], feeds, seen, q.Combine, q.Out)
		} else {
			merge, err = NewMergeEmitter(fmt.Sprintf("%s.merge.%s", prefix, q.Name), pw.Staging[qi], q.Out)
		}
		if err != nil {
			return nil, err
		}
		pw.Merges = append(pw.Merges, merge)
		pw.Factories = append(pw.Factories, merge)
	}
	if track != nil {
		track.merges = pw.Merges
	}
	return pw, nil
}
