package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/workload"
)

// The scatter-gather parity corpus: an N-shard cluster must return
// byte-identical top-k results — same docIDs, same float32 score bits,
// same order — as a single engine searching the unpartitioned corpus,
// for every query of a synthesized log and for every execution mode.
// This is the cluster layer's golden-style equivalence guarantee: the
// partitioner preserves global BM25 statistics, and the merge runs the
// engine's own total-order selection over the per-shard top-k lists.

func parityCorpus(t testing.TB) *workload.Corpus {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    300_000,
		NumTerms:   60,
		MaxListLen: 80_000,
		MinListLen: 200,
		Alpha:      1.0,
		Codec:      index.CodecEF,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func parityQueries(c *workload.Corpus, n int) []workload.Query {
	return workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: n, PopularityAlpha: 0.7, Seed: 7,
	})
}

func singleEngine(t testing.TB, c *workload.Corpus, mode core.Mode, k int) *core.Engine {
	t.Helper()
	cfg := core.Config{Mode: mode, TopK: k}
	if mode != core.CPUOnly {
		cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
	}
	e, err := core.New(c.Index, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func buildCluster(t testing.TB, c *workload.Corpus, shards int, cfg Config) *Cluster {
	t.Helper()
	ixs, err := workload.PartitionCorpus(c, shards)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(ixs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestScatterGatherParity(t *testing.T) {
	const k = 10
	c := parityCorpus(t)
	queries := parityQueries(c, 150)

	for _, mode := range []core.Mode{core.CPUOnly, core.Hybrid} {
		single := singleEngine(t, c, mode, k)
		want := make([]*core.Result, len(queries))
		for i, q := range queries {
			r, err := single.Search(q.Terms)
			if err != nil {
				t.Fatalf("%v single query %d: %v", mode, i, err)
			}
			want[i] = r
		}
		for _, shards := range []int{1, 2, 4, 8} {
			cl := buildCluster(t, c, shards, Config{
				Engine: core.Config{Mode: mode},
				TopK:   k,
			})
			for i, q := range queries {
				got, err := cl.Search(context.Background(), q.Terms)
				if err != nil {
					t.Fatalf("%v shards=%d query %d: %v", mode, shards, i, err)
				}
				if got.Stats.Degraded {
					t.Fatalf("%v shards=%d query %d: unexpectedly degraded", mode, shards, i)
				}
				if len(got.Docs) != len(want[i].Docs) {
					t.Fatalf("%v shards=%d query %d %v: %d docs != single-engine %d",
						mode, shards, i, q.Terms, len(got.Docs), len(want[i].Docs))
				}
				for j := range want[i].Docs {
					w, g := want[i].Docs[j], got.Docs[j]
					if g.DocID != w.DocID || math.Float32bits(g.Score) != math.Float32bits(w.Score) {
						t.Fatalf("%v shards=%d query %d %v: doc[%d] = {%d %x} != single-engine {%d %x}",
							mode, shards, i, q.Terms, j,
							g.DocID, math.Float32bits(g.Score), w.DocID, math.Float32bits(w.Score))
					}
				}
				// One shard is the single engine: its gather is free, so the
				// cluster's critical path is the engine's latency exactly.
				if shards == 1 && got.Stats.Latency != want[i].Stats.Latency {
					t.Fatalf("%v shards=1 query %d %v: latency %v != single-engine %v (merge %v)",
						mode, i, q.Terms, got.Stats.Latency, want[i].Stats.Latency, got.Stats.MergeTime)
				}
			}
			cl.Close()
		}
		single.Close()
	}
}

func TestMergeTopK(t *testing.T) {
	a := []kernels.ScoredDoc{{DocID: 4, Score: 9}, {DocID: 1, Score: 7}, {DocID: 8, Score: 7}}
	b := []kernels.ScoredDoc{{DocID: 2, Score: 8}, {DocID: 3, Score: 7}}
	ids := func(docs []kernels.ScoredDoc) []uint32 {
		out := make([]uint32, len(docs))
		for i, d := range docs {
			out[i] = d.DocID
		}
		return out
	}
	cases := []struct {
		name  string
		parts [][]kernels.ScoredDoc
		k     int
		want  []uint32
		free  bool
	}{
		{"two parts", [][]kernels.ScoredDoc{a, b}, 4, []uint32{4, 2, 1, 3}, false},
		{"one part is the answer", [][]kernels.ScoredDoc{a}, 10, []uint32{4, 1, 8}, true},
		{"one part truncated", [][]kernels.ScoredDoc{a}, 2, []uint32{4, 1}, true},
		{"empty parts", [][]kernels.ScoredDoc{{}, {}}, 3, nil, true},
		{"one empty part", [][]kernels.ScoredDoc{{}}, 3, nil, true},
		{"k zero", [][]kernels.ScoredDoc{a}, 0, nil, true},
	}
	for _, tc := range cases {
		got, work := MergeTopK(tc.parts, tc.k)
		if fmt.Sprint(ids(got)) != fmt.Sprint(tc.want) {
			t.Errorf("%s: docs %v, want %v", tc.name, ids(got), tc.want)
		}
		if free := work == (hwmodel.CPUWork{}); free != tc.free {
			t.Errorf("%s: work %+v, want free=%v", tc.name, work, tc.free)
		}
	}
}

// Candidate-count conservation: the shards' candidate sets partition the
// single engine's candidate set.
func TestScatterGatherCandidatePartition(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 60)
	single := singleEngine(t, c, core.CPUOnly, 10)
	defer single.Close()
	cl := buildCluster(t, c, 4, Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: 10})
	defer cl.Close()

	for i, q := range queries {
		w, err := single.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cl.Search(context.Background(), q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, ss := range g.Stats.Shards {
			total += ss.Query.Candidates
		}
		if total != w.Stats.Candidates {
			t.Fatalf("query %d %v: shard candidates sum %d != single-engine %d",
				i, q.Terms, total, w.Stats.Candidates)
		}
	}
}
