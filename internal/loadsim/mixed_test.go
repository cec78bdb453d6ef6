package loadsim

import (
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/index"
	"griffin/internal/ingest"
	"griffin/internal/workload"
)

// mixedFixture builds a small corpus, a read log, a valid mutation
// script (adds of fresh docs, then updates and deletes of them), and a
// constructor for a one-shard (single-node) hybrid live cluster.
func mixedFixture(t testing.TB) ([][]string, []Mutation, func(threshold int) *ingest.Cluster) {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    60_000,
		NumTerms:   30,
		MaxListLen: 20_000,
		MinListLen: 100,
		Alpha:      1.0,
		Codec:      index.CodecEF,
		Seed:       71,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 120, PopularityAlpha: 0.6, Seed: 72,
	})
	queries := make([][]string, len(log))
	for i, q := range log {
		queries[i] = q.Terms
	}
	base := uint32(c.Index.NumDocs)
	var muts []Mutation
	for i := 0; i < 30; i++ {
		muts = append(muts, Mutation{Kind: MutAdd, DocID: base + uint32(i), Tokens: queries[i%len(queries)]})
	}
	for i := 0; i < 5; i++ {
		muts = append(muts, Mutation{Kind: MutUpdate, DocID: base + uint32(i), Tokens: queries[(i+7)%len(queries)]})
	}
	for i := 5; i < 10; i++ {
		muts = append(muts, Mutation{Kind: MutDelete, DocID: base + uint32(i)})
	}
	mk := func(threshold int) *ingest.Cluster {
		e, err := ingest.NewCluster(c.Index, ingest.ClusterConfig{
			Shards:         1,
			Cluster:        cluster.Config{Engine: core.Config{Mode: core.Hybrid}},
			MergeThreshold: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return queries, muts, mk
}

// The two arms of the mixed workload share one arrival process (the
// cluster never consumes the rng), so read/write interleavings are
// identical; only the merge arm commits merges, and their re-encoding
// cost lands on the shard's device timeline.
func TestRunMixedMergeVsNoMergeArms(t *testing.T) {
	queries, muts, mk := mixedFixture(t)
	spec := MixedSpec{ArrivalRate: 400, WriteFraction: 0.4, Seed: 9}

	noMerge := mk(12)
	off, err := RunMixed(noMerge, queries, muts, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer noMerge.Close()

	specOn := spec
	specOn.Merge = true
	merged := mk(12)
	on, err := RunMixed(merged, queries, muts, specOn)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()

	if off.Reads != on.Reads || off.Writes != on.Writes {
		t.Fatalf("arms diverged: off %d/%d reads/writes, on %d/%d",
			off.Reads, off.Writes, on.Reads, on.Writes)
	}
	if off.Reads != len(queries) {
		t.Fatalf("Reads = %d, want %d (run ends when the read log drains)", off.Reads, len(queries))
	}
	if off.Writes == 0 || off.Writes > len(muts) {
		t.Fatalf("Writes = %d, want within (0, %d]", off.Writes, len(muts))
	}
	if off.Failed != 0 || on.Failed != 0 {
		t.Fatalf("fault-free run failed reads: off=%d on=%d", off.Failed, on.Failed)
	}
	if a := on.Availability(); a != 1 {
		t.Fatalf("availability = %v, want 1", a)
	}

	if off.Stats.Merges != 0 {
		t.Fatalf("no-merge arm committed %d merges", off.Stats.Merges)
	}
	seen := map[uint32]bool{}
	for _, m := range muts[:off.Writes] {
		seen[m.DocID] = true
	}
	if off.Stats.DeltaDocs != len(seen) {
		t.Fatalf("no-merge delta holds %d records, want %d distinct docs (every write unmerged)",
			off.Stats.DeltaDocs, len(seen))
	}
	if off.DeltaPeak != len(seen) {
		t.Fatalf("no-merge DeltaPeak = %d, want %d", off.DeltaPeak, len(seen))
	}

	if on.Stats.Merges == 0 {
		t.Fatal("merge arm committed no merges despite threshold crossings")
	}
	if on.Stats.MergeDevice <= 0 {
		t.Fatal("merge arm charged no device time for re-encoding")
	}
	if on.Stats.DeltaDocs >= off.Stats.DeltaDocs {
		t.Fatalf("merge arm residual delta %d not below no-merge %d",
			on.Stats.DeltaDocs, off.Stats.DeltaDocs)
	}
	if on.DeltaPeak > off.DeltaPeak {
		t.Fatalf("merge arm DeltaPeak %d exceeds no-merge %d", on.DeltaPeak, off.DeltaPeak)
	}
	if on.Latencies.Count() != on.Reads || off.Latencies.Count() != off.Reads {
		t.Fatal("latency sample counts disagree with read counts")
	}
	if off.Makespan <= 0 || on.Makespan <= 0 {
		t.Fatal("makespan not recorded")
	}
	if on.GPUBusy <= 0 {
		t.Fatal("hybrid run reported zero GPU busy fraction")
	}
}

// An empty read log or non-positive rate is a no-op, not an error.
func TestRunMixedDegenerate(t *testing.T) {
	queries, muts, mk := mixedFixture(t)
	e := mk(0)
	defer e.Close()
	res, err := RunMixed(e, nil, muts, MixedSpec{ArrivalRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 0 || res.Writes != 0 || res.Latencies.Count() != 0 {
		t.Fatalf("empty read log ran work: %+v", res)
	}
	res, err = RunMixed(e, queries[:3], muts, MixedSpec{ArrivalRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 0 || res.Writes != 0 {
		t.Fatalf("zero rate ran work: %+v", res)
	}
	var zero time.Duration
	if res.Makespan != zero {
		t.Fatalf("zero-rate makespan = %v", res.Makespan)
	}
}
