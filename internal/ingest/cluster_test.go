package ingest

import (
	"math/rand"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/index"
)

// The sharded twins of the single-node live tests: the same bodies at
// more than one shard (a single node is the one-shard cluster).

func TestClusterLiveParity(t *testing.T) { testLiveParity(t, 2) }

// TestClusterQuiescedGoldenParity: after mutations, a shard merge and a
// Quiesce (rebuild), the live cluster must be indistinguishable from a
// cluster freshly built over the partitioned live corpus — documents,
// scores, per-shard latencies, op traces, and scatter-gather stats alike.
func TestClusterQuiescedGoldenParity(t *testing.T) {
	testQuiescedGoldenParity(t, 3, core.Config{Mode: core.Hybrid}, index.CodecBoth)
}

func TestClusterMergeAbort(t *testing.T) { testMergeAbortRetries(t, 2) }

func TestClusterConcurrentSnapshotIsolation(t *testing.T) {
	testConcurrentSnapshotIsolation(t, 2, core.Config{Mode: core.CPUOnly})
}

// TestClusterSplit: crossing the shard-size watermark triggers a
// background split that re-partitions the corpus into one more shard,
// with routing updated for queries and mutations mid-flight.
func TestClusterSplit(t *testing.T) {
	const vocab = 16
	lc := seedCorpus(41, 60, vocab)
	cfg := cpuConfig(2)
	cfg.SplitWatermark = 45
	c := newLive(t, lc, cfg)
	defer c.Close()

	// Explicit split first: 2 → 3 shards, parity preserved.
	if err := c.Split(); err != nil {
		t.Fatal(err)
	}
	if got := c.Shards(); got != 3 {
		t.Fatalf("shards after explicit split = %d, want 3", got)
	}
	queries := queryLog(vocab)
	checkLiveParity(t, c, lc, queries, "explicit-split")

	// Now push one shard past the watermark (docIDs ≡ 0 mod 3 land on
	// shard 0) and keep mutating until the background split lands.
	next := uint32(10_000) // ShardOf(10000+3k, 3) == (10000+3k)%3
	for added := 0; added < 90; added++ {
		id := next
		next += 3
		m := mutation{kind: mutAdd, docID: id, tokens: genDoc(rand.New(rand.NewSource(int64(added))), vocab)}
		apply(t, c, lc, m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Shards() == 3 {
		if time.Now().After(deadline) {
			st := c.Stats()
			t.Fatalf("watermark split never fired: shards=%d docs=%v", st.Shards, st.ShardDocs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Shards(); got != 4 {
		t.Fatalf("shards after watermark split = %d, want 4", got)
	}
	st := c.Stats()
	if st.Splits < 1 {
		t.Errorf("splits = %d, want >= 1", st.Splits)
	}
	checkLiveParity(t, c, lc, queries, "watermark-split")

	// Routing after the split: mutations to fresh docIDs land on the new
	// topology and stay queryable.
	m := mutation{kind: mutAdd, docID: 50_000, tokens: []string{"fresh-term", word(0), word(1)}}
	apply(t, c, lc, m)
	checkLiveParity(t, c, lc, queries, "post-split-ingest")
}
