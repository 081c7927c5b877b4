package basket

import (
	"testing"

	"datacell/internal/bat"
	"datacell/internal/interval"
	"datacell/internal/vector"
)

func intRelKV(pairs ...int64) *bat.Relation {
	rel := bat.NewEmptyRelation([]string{"k", "v"}, []vector.Type{vector.Int, vector.Int})
	for i := 0; i+1 < len(pairs); i += 2 {
		rel.AppendRow(vector.NewInt(pairs[i]), vector.NewInt(pairs[i+1]))
	}
	return rel
}

func TestPartitionedRoundRobinBalances(t *testing.T) {
	pb, err := NewPartitioned("s", []string{"k", "v"}, []vector.Type{vector.Int, vector.Int},
		4, PartitionRoundRobin, "")
	if err != nil {
		t.Fatal(err)
	}
	var rel *bat.Relation
	{
		rel = bat.NewEmptyRelation([]string{"k", "v"}, []vector.Type{vector.Int, vector.Int})
		for i := int64(0); i < 103; i++ {
			rel.AppendRow(vector.NewInt(i%5), vector.NewInt(i))
		}
	}
	n, err := pb.Append(rel)
	if err != nil {
		t.Fatal(err)
	}
	if n != 103 {
		t.Fatalf("accepted %d tuples, want 103", n)
	}
	total := 0
	for _, p := range pb.Parts() {
		l := p.Len()
		if l < 25 || l > 27 {
			t.Errorf("partition %s holds %d tuples; round-robin should balance 103/4", p.Name(), l)
		}
		total += l
	}
	if total != 103 {
		t.Fatalf("partitions hold %d tuples in total, want 103", total)
	}
	// A second append keeps rotating: the cursor persists across batches.
	if _, err := pb.Append(intRelKV(1, 1)); err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, p := range pb.Parts() {
		total += p.Len()
	}
	if total != 104 {
		t.Fatalf("after second append partitions hold %d, want 104", total)
	}
}

func TestPartitionedHashCoLocatesKeys(t *testing.T) {
	pb, err := NewPartitioned("s", []string{"k", "v"}, []vector.Type{vector.Int, vector.Int},
		3, PartitionHash, "k")
	if err != nil {
		t.Fatal(err)
	}
	rel := bat.NewEmptyRelation([]string{"k", "v"}, []vector.Type{vector.Int, vector.Int})
	for i := int64(0); i < 200; i++ {
		rel.AppendRow(vector.NewInt(i%7), vector.NewInt(i))
	}
	if _, err := pb.Append(rel); err != nil {
		t.Fatal(err)
	}
	// Every key must live in exactly one partition.
	home := map[int64]int{}
	for pi, p := range pb.Parts() {
		snap := p.Snapshot()
		ks := snap.ColByName("k")
		for i := 0; i < snap.Len(); i++ {
			k := ks.Ints()[i]
			if prev, ok := home[k]; ok && prev != pi {
				t.Fatalf("key %d found in partitions %d and %d", k, prev, pi)
			}
			home[k] = pi
		}
	}
	if len(home) != 7 {
		t.Fatalf("saw %d distinct keys, want 7", len(home))
	}
}

func TestPartitionedHashRejectsUnknownColumn(t *testing.T) {
	if _, err := NewPartitioned("s", []string{"v"}, []vector.Type{vector.Int},
		2, PartitionHash, "nope"); err == nil {
		t.Fatal("NewPartitioned should reject a hash column outside the schema")
	}
	if _, err := NewPartitioned("s", []string{"v"}, []vector.Type{vector.Int},
		0, PartitionRoundRobin, ""); err == nil {
		t.Fatal("NewPartitioned should reject zero partitions")
	}
}

func TestPartitionedSinglePartitionPassthrough(t *testing.T) {
	pb, err := NewPartitioned("s", []string{"k", "v"}, []vector.Type{vector.Int, vector.Int},
		1, PartitionHash, "k")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Append(intRelKV(1, 10, 2, 20, 3, 30)); err != nil {
		t.Fatal(err)
	}
	if got := pb.Parts()[0].Len(); got != 3 {
		t.Fatalf("single partition holds %d tuples, want 3", got)
	}
}

func rangeSet(lo, hi int64) interval.Set {
	return interval.NewSet(interval.Interval{
		Lo: interval.Closed(vector.NewInt(lo)),
		Hi: interval.Open(vector.NewInt(hi)),
	})
}

func TestPartitionedRangeRoutesAndPrunes(t *testing.T) {
	// Matching domain [0,100) sliced over 4 partitions; everything else
	// must land in the catch-all.
	pb, err := NewPartitionedRange("s", []string{"k", "v"}, []vector.Type{vector.Int, vector.Int},
		4, "v", rangeSet(0, 100), false)
	if err != nil {
		t.Fatal(err)
	}
	rel := bat.NewEmptyRelation([]string{"k", "v"}, []vector.Type{vector.Int, vector.Int})
	for i := int64(-50); i < 150; i++ {
		rel.AppendRow(vector.NewInt(i), vector.NewInt(i))
	}
	n, err := pb.Append(rel)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("accepted %d tuples, want 200", n)
	}
	if got := pb.CatchAll().Len(); got != 100 {
		t.Fatalf("catch-all holds %d tuples, want the 100 outside [0,100)", got)
	}
	total := 0
	for pi, p := range pb.Parts() {
		l := p.Len()
		if l != 25 {
			t.Errorf("partition %d holds %d tuples; equal-measure slices of [0,100) should each get 25", pi, l)
		}
		total += l
		// Every resident value must belong to the matching domain.
		snap := p.Snapshot()
		vs := snap.ColByName("v")
		for i := 0; i < snap.Len(); i++ {
			if v := vs.Ints()[i]; v < 0 || v >= 100 {
				t.Fatalf("partition %d holds non-matching value %d", pi, v)
			}
		}
	}
	if total != 100 {
		t.Fatalf("partitions hold %d matching tuples, want 100", total)
	}
	// Range slices are contiguous: partition order must follow value order.
	for pi, p := range pb.Parts() {
		snap := p.Snapshot()
		vs := snap.ColByName("v")
		for i := 0; i < snap.Len(); i++ {
			if got := int(vs.Ints()[i] / 25); got != pi {
				t.Fatalf("value %d landed in partition %d, want %d", vs.Ints()[i], pi, got)
			}
		}
	}
}

func TestPartitionedRangeHashPlacementForPointSets(t *testing.T) {
	// An IN-set has zero measure: matchers place by hash, the rest prunes.
	set := interval.NewSet(
		interval.Point(vector.NewInt(3)),
		interval.Point(vector.NewInt(7)),
		interval.Point(vector.NewInt(11)))
	pb, err := NewPartitionedRange("s", []string{"v"}, []vector.Type{vector.Int},
		2, "v", set, false)
	if err != nil {
		t.Fatal(err)
	}
	rel := bat.NewEmptyRelation([]string{"v"}, []vector.Type{vector.Int})
	for i := int64(0); i < 20; i++ {
		rel.AppendRow(vector.NewInt(i % 16))
	}
	if _, err := pb.Append(rel); err != nil {
		t.Fatal(err)
	}
	matched := pb.Parts()[0].Len() + pb.Parts()[1].Len()
	if matched != 4 { // 3,7,11 once each in 0..15, plus 3 again at i=19
		t.Fatalf("partitions hold %d tuples, want 4 matching the IN-set", matched)
	}
	if got := pb.CatchAll().Len(); got != 16 {
		t.Fatalf("catch-all holds %d tuples, want 16", got)
	}
}

func TestPartitionedRangeRejections(t *testing.T) {
	if _, err := NewPartitionedRange("s", []string{"v"}, []vector.Type{vector.Int},
		2, "nope", rangeSet(0, 10), false); err == nil {
		t.Fatal("NewPartitionedRange should reject a column outside the schema")
	}
	all := interval.NewSet(interval.Interval{Lo: interval.Unbounded(), Hi: interval.Unbounded()})
	if _, err := NewPartitionedRange("s", []string{"v"}, []vector.Type{vector.Int},
		2, "v", all, false); err == nil {
		t.Fatal("NewPartitionedRange should reject a vacuous all-values set")
	}
}

func TestPartitionedRangeSinglePartitionStillPrunes(t *testing.T) {
	pb, err := NewPartitionedRange("s", []string{"v"}, []vector.Type{vector.Int},
		1, "v", rangeSet(0, 10), false)
	if err != nil {
		t.Fatal(err)
	}
	rel := bat.NewEmptyRelation([]string{"v"}, []vector.Type{vector.Int})
	for i := int64(0); i < 30; i++ {
		rel.AppendRow(vector.NewInt(i))
	}
	if _, err := pb.Append(rel); err != nil {
		t.Fatal(err)
	}
	if got := pb.Parts()[0].Len(); got != 10 {
		t.Fatalf("partition holds %d, want the 10 matching tuples", got)
	}
	if got := pb.CatchAll().Len(); got != 20 {
		t.Fatalf("catch-all holds %d, want 20", got)
	}
}
