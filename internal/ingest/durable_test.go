package ingest

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/workload"
)

// Durable ingest at one shard (the single node) and, where the property
// does not depend on the shard count, at more; durable_cluster_test.go
// holds the sharded twins and the split/wedge properties that only exist
// with several shard logs.

// walConfig is a CPU-only durable live cluster configuration.
func walConfig(shards int, dir string) ClusterConfig {
	cfg := cpuConfig(shards)
	cfg.WALDir = dir
	return cfg
}

// open opens (or recovers) a durable live cluster over base's build.
func open(t testing.TB, base *logicalCorpus, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := OpenCluster(base.build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// applyPrefix replays script[:k] into the cluster and the logical corpus,
// asserting every mutation is acknowledged.
func applyPrefix(t testing.TB, c *Cluster, lc *logicalCorpus, script []mutation, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		apply(t, c, lc, script[i])
	}
}

// applyUntilWedged replays the script until a mutation fails, returning
// the acknowledged count and the failing error.
func applyUntilWedged(c *Cluster, script []mutation) (int, error) {
	for i, m := range script {
		if err := mutate(c, m); err != nil {
			return i, err
		}
	}
	return len(script), nil
}

// checkIndexParity asserts a segment carries exactly the BM25 collection
// statistics and dictionary of a fresh build — the "and BM25 stats" half
// of the recovery-parity invariant.
func checkIndexParity(t *testing.T, got, want *index.Index, tag string) {
	t.Helper()
	if got.NumDocs != want.NumDocs {
		t.Errorf("%s: NumDocs %d, want %d", tag, got.NumDocs, want.NumDocs)
	}
	if math.Float64bits(got.AvgDocLen) != math.Float64bits(want.AvgDocLen) {
		t.Errorf("%s: AvgDocLen %v, want %v (bit-exact)", tag, got.AvgDocLen, want.AvgDocLen)
	}
	if !reflect.DeepEqual(got.DocLens, want.DocLens) {
		t.Errorf("%s: DocLens diverge", tag)
	}
	if !reflect.DeepEqual(got.Terms(), want.Terms()) {
		t.Errorf("%s: term dictionaries diverge", tag)
	}
}

// checkQuiescedIndexParity asserts every shard segment of a quiesced
// cluster matches the same shard of lc's fresh partitioned build.
func checkQuiescedIndexParity(t *testing.T, c *Cluster, lc *logicalCorpus, tag string) {
	t.Helper()
	parts, err := workload.PartitionIndex(lc.build(t, index.CodecEF), c.Shards())
	if err != nil {
		t.Fatal(err)
	}
	for s, want := range parts {
		checkIndexParity(t, c.Cluster().ShardIndex(s), want, fmt.Sprintf("%s shard %d", tag, s))
	}
}

func TestOpenWithoutWALDirMatchesNew(t *testing.T) { testOpenWithoutWALDirMatchesNew(t, 1) }

func testOpenWithoutWALDirMatchesNew(t *testing.T, shards int) {
	const vocab = 10
	lc := seedCorpus(401, 60, vocab)
	c := open(t, lc, cpuConfig(shards))
	defer c.Close()
	if c.store != nil {
		t.Fatalf("OpenCluster without WALDir attached a store")
	}
	for _, m := range genScript(402, lc.clone(), 20, vocab) {
		apply(t, c, lc, m)
	}
	if st := c.Stats(); st.WAL != nil {
		t.Fatalf("no-WAL cluster exposes a wal stats block: %+v", st.WAL)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a no-WAL cluster must be a no-op: %v", err)
	}
	if c.Wedged() != nil {
		t.Fatalf("no-WAL cluster reports wedged")
	}
	checkLiveParity(t, c, lc, queryLog(vocab), "no-wal")
}

// crashSpec is one crash-recovery parity run: a seeded corpus and script,
// the crash points, and the script steps after which every shard merges
// and a checkpoint commits.
type crashSpec struct {
	seed           int64
	docs, muts     int
	points         []int
	mergeAt, ckpAt int
}

// TestCrashRecoveryParity is the tentpole invariant over plain (fault
// free) crash points: for every crash point k in a mixed workload —
// including points straddling merges and checkpoints — recover →
// quiesce is byte-identical, results and BM25 stats, to a fresh build
// over the acknowledged prefix.
func TestCrashRecoveryParity(t *testing.T) {
	testCrashRecoveryParity(t, 1, crashSpec{
		seed: 311, docs: 70, muts: 40, points: []int{0, 1, 7, 18, 19, 25, 40}, mergeAt: 9, ckpAt: 17,
	})
}

func testCrashRecoveryParity(t *testing.T, shards int, spec crashSpec) {
	const vocab = 14
	base := seedCorpus(spec.seed, spec.docs, vocab)
	script := genScript(spec.seed+1, base.clone(), spec.muts, vocab)
	for _, k := range spec.points {
		t.Run(fmt.Sprintf("crash-after-%d", k), func(t *testing.T) {
			cfg := walConfig(shards, t.TempDir())
			lc := base.clone()
			c := open(t, base, cfg)
			for i := 0; i < k; i++ {
				apply(t, c, lc, script[i])
				if i == spec.mergeAt { // committed shard merges mid-run
					for s := 0; s < shards; s++ {
						if err := c.MergeShard(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				if i == spec.ckpAt { // a committed checkpoint mid-run
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.Crash()

			r := open(t, base, cfg)
			defer r.Close()
			if got := r.Gen(); got != uint64(k) {
				t.Fatalf("recovered gen %d, want %d (every acknowledged write survives at sync-every-append)", got, k)
			}
			checkLiveParity(t, r, lc, queryLog(vocab), "recovered-live")
			if err := r.Quiesce(); err != nil {
				t.Fatal(err)
			}
			checkLiveParity(t, r, lc, queryLog(vocab), "recovered-quiesced")
			checkQuiescedIndexParity(t, r, lc, "recovered")
		})
	}
}

// TestCrashPointFaultParityMatrix drives the seeded storage-fault matrix
// — torn writes and bit flips on the append path, short writes on the
// sync path — and proves the acknowledged-prefix invariant at each
// injected crash point: unacknowledged mutations vanish, acknowledged
// ones survive bit-exactly. Fault windows count per shard log, so they
// scale down with the shard count to land at the same script depth.
func TestCrashPointFaultParityMatrix(t *testing.T) {
	const vocab = 14
	base := seedCorpus(321, 70, vocab)
	script := genScript(322, base.clone(), 36, vocab)
	cases := []struct {
		name      string
		kind      fault.Kind
		at        int64 // per-log opportunity index at one shard
		syncEvery int
	}{
		{"torn-append-early", fault.TornWrite, 3, 0},
		{"torn-append-late", fault.TornWrite, 30, 0},
		{"bitflip-append", fault.BitFlip, 12, 0},
		{"short-sync", fault.ShortWrite, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forShards(t, []int{1, 3}, func(t *testing.T, shards int) {
				at := tc.at
				if tc.syncEvery == 0 {
					at /= int64(shards)
				}
				cfg := walConfig(shards, t.TempDir())
				cfg.WALSyncEvery = tc.syncEvery
				cfg.Cluster.Fault = fault.NewInjector(fault.Plan{Seed: 7, Rules: []fault.Rule{
					{Kind: tc.kind, Rate: 1, After: at, Until: at + 1},
				}})
				c := open(t, base, cfg)
				acked, wedgeErr := applyUntilWedged(c, script)
				if acked == len(script) {
					t.Fatalf("fault never fired: all %d mutations acknowledged", acked)
				}
				if !fault.IsStorageFault(wedgeErr) {
					t.Fatalf("wedging error %v is not a storage fault", wedgeErr)
				}
				if c.Wedged() == nil {
					t.Fatalf("cluster does not report wedged after storage fault")
				}
				// A wedged log rejects mutations but reads keep serving.
				if _, err := c.Search([]string{word(0)}); err != nil {
					t.Fatalf("read on wedged cluster: %v", err)
				}
				if err := mutate(c, script[acked]); !fault.IsStorageFault(err) {
					t.Fatalf("wedged shard acknowledged a mutation (err=%v)", err)
				}
				c.Crash()

				// Recovery: fresh injector-free config (the fault already did
				// its damage on disk).
				rcfg := cfg
				rcfg.Cluster.Fault = nil
				r := open(t, base, rcfg)
				defer r.Close()
				recovered := int(r.Gen())
				if tc.syncEvery == 0 {
					// Sync-every-append: the acknowledged prefix survives whole.
					if recovered != acked {
						t.Fatalf("recovered %d mutations, want the %d acknowledged", recovered, acked)
					}
				} else if recovered > acked {
					t.Fatalf("recovered %d mutations, more than the %d acknowledged", recovered, acked)
				}
				// Parity target: the corpus holding exactly the recovered prefix.
				ref := base.clone()
				for _, m := range script[:recovered] {
					applyLogical(ref, m)
				}
				checkLiveParity(t, r, ref, queryLog(vocab), "recovered-live")
				if err := r.Quiesce(); err != nil {
					t.Fatal(err)
				}
				checkLiveParity(t, r, ref, queryLog(vocab), "recovered")
				checkQuiescedIndexParity(t, r, ref, "recovered")
				st := r.Stats()
				if st.WAL == nil || st.WAL.TruncatedBytes == 0 {
					t.Errorf("recovery reported no truncated bytes after injected corruption: %+v", st.WAL)
				}
			})
		})
	}
}

// TestCorruptCheckpointFallsBackToFullReplay injects the ckpt fault
// site: the checkpoint is silently corrupted on disk, and recovery must
// detect it, skip it, and still reach full parity by replaying the
// whole log over the seed.
func TestCorruptCheckpointFallsBackToFullReplay(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 12
		base := seedCorpus(331, 60, vocab)
		script := genScript(332, base.clone(), 30, vocab)
		cfg := walConfig(shards, t.TempDir())
		lc := base.clone()
		c := open(t, base, cfg)
		applyPrefix(t, c, lc, script, 20)
		// Arm the injector for the checkpoint only: a global BitFlip rule
		// would also wedge the append path, and the point here is a
		// corrupt checkpoint over a clean log.
		c.store.SetFault(fault.NewInjector(fault.Plan{Seed: 3, Rules: []fault.Rule{
			{Kind: fault.BitFlip, Rate: 1},
		}}))
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("silently corrupted checkpoint surfaced an error: %v", err)
		}
		c.store.SetFault(nil)
		applyPrefix(t, c, lc, script[20:], 10)
		c.Crash()

		r := open(t, base, cfg)
		defer r.Close()
		st := r.Stats()
		if st.WAL == nil || st.WAL.SkippedCheckpoints != 1 {
			t.Fatalf("corrupt checkpoint not skipped: %+v", st.WAL)
		}
		if st.WAL.RecoveredRecords != int64(len(script)) {
			t.Fatalf("replayed %d records, want the full log of %d after checkpoint fallback",
				st.WAL.RecoveredRecords, len(script))
		}
		if err := r.Quiesce(); err != nil {
			t.Fatal(err)
		}
		checkLiveParity(t, r, lc, queryLog(vocab), "ckpt-fallback")
	})
}

// TestRecoveryNeverResurrectsTombstone pins the documented rule: a
// torn tail truncates cleanly and a tombstoned document stays dead —
// recovery must not "fix up" a delete whose successor record was lost.
func TestRecoveryNeverResurrectsTombstone(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const victim = uint32(3)
		base := seedCorpus(341, 10, 8)
		// The victim shard log's 2nd append (seq 1) tears: the delete
		// (seq 0) is durable, the re-add of the same docID is torn away.
		cfg := walConfig(shards, t.TempDir())
		cfg.Cluster.Fault = fault.NewInjector(fault.Plan{Seed: 5, Rules: []fault.Rule{
			{Kind: fault.TornWrite, Rate: 1, After: 1, Until: 2},
		}})
		c := open(t, base, cfg)
		if err := c.Delete(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(victim, []string{"resurrect", "me"}); !fault.IsStorageFault(err) {
			t.Fatalf("torn re-add err = %v, want storage fault", err)
		}
		c.Crash()

		rcfg := cfg
		rcfg.Cluster.Fault = nil
		r := open(t, base, rcfg)
		defer r.Close()
		if got := r.Gen(); got != 1 {
			t.Fatalf("recovered gen %d, want 1 (the delete only)", got)
		}
		if err := r.Quiesce(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < r.Shards(); s++ {
			if ix := r.Cluster().ShardIndex(s); int(victim) < len(ix.DocLens) && ix.DocLens[victim] != 0 {
				t.Fatalf("tombstoned doc %d resurrected with length %d", victim, ix.DocLens[victim])
			}
		}
		want := base.clone()
		delete(want.docs, victim)
		checkLiveParity(t, r, want, queryLog(8), "tombstone")
	})
}

// TestCloseDurabilityBarrier pins the shutdown contract: even with
// syncing deferred (WALSyncEvery < 0), Close flushes and syncs every
// acknowledged mutation before returning — the SIGTERM barrier
// cmd/griffin-server relies on.
func TestCloseDurabilityBarrier(t *testing.T) { testCloseDurabilityBarrier(t, 1) }

func testCloseDurabilityBarrier(t *testing.T, shards int) {
	const vocab = 10
	base := seedCorpus(351, 40, vocab)
	script := genScript(352, base.clone(), 25, vocab)
	cfg := walConfig(shards, t.TempDir())
	cfg.WALSyncEvery = -1
	lc := base.clone()
	c := open(t, base, cfg)
	applyPrefix(t, c, lc, script, len(script))
	if st := c.Stats(); st.WAL.Syncs != 0 {
		t.Fatalf("deferred-sync cluster synced %d times before close", st.WAL.Syncs)
	}
	c.Close()

	r := open(t, base, cfg)
	defer r.Close()
	if got := r.Gen(); got != uint64(len(script)) {
		t.Fatalf("recovered %d mutations after clean close, want all %d", got, len(script))
	}
	if err := r.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkLiveParity(t, r, lc, queryLog(vocab), "post-close")
}

// TestMergeAbortCrashRecoversPreMergeView covers the merge-abort fault
// site interacting with recovery: a crash after aborted merges recovers
// to the pre-merge view — every acknowledged mutation, no half-merged
// segment — and a checkpoint taken over the unmerged deltas recovers
// exactly with nothing left to replay.
func TestMergeAbortCrashRecoversPreMergeView(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 12
		base := seedCorpus(361, 50, vocab)
		script := genScript(362, base.clone(), 24, vocab)
		cfg := walConfig(shards, t.TempDir())
		cfg.Cluster.Fault = fault.NewInjector(fault.Plan{Seed: 9, Rules: []fault.Rule{
			{Kind: fault.EngineError, Rate: 1}, // every merge admission aborts
		}})
		cfg.MergeRetries = -1
		lc := base.clone()
		c := open(t, base, cfg)
		applyPrefix(t, c, lc, script, len(script))
		for s := 0; s < shards; s++ {
			if err := c.MergeShard(s); !fault.IsEngineFault(err) {
				t.Fatalf("merge shard %d err = %v, want injected engine fault", s, err)
			}
		}
		if st := c.Stats(); st.Merges != 0 || st.DeltaDocs == 0 {
			t.Fatalf("aborted merges changed the deltas: %+v", st)
		}
		c.Crash()

		rcfg := cfg
		rcfg.Cluster.Fault = nil
		r := open(t, base, rcfg)
		if got := r.Gen(); got != uint64(len(script)) {
			t.Fatalf("recovered %d mutations, want all %d acknowledged pre-merge", got, len(script))
		}
		checkLiveParity(t, r, lc, queryLog(vocab), "post-merge-abort")
		// Checkpoint the recovered (still unmerged) state, crash again: the
		// checkpoint covers every generation, so nothing replays.
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		r.Crash()
		r2 := open(t, base, rcfg)
		defer r2.Close()
		if st := r2.Stats(); st.WAL.CheckpointGen != uint64(len(script)) || st.WAL.RecoveredRecords != 0 {
			t.Fatalf("checkpoint watermark %d with %d replayed, want %d and 0",
				st.WAL.CheckpointGen, st.WAL.RecoveredRecords, len(script))
		}
		if err := r2.Quiesce(); err != nil {
			t.Fatal(err)
		}
		checkLiveParity(t, r2, lc, queryLog(vocab), "post-merge-abort-ckpt")
		checkQuiescedIndexParity(t, r2, lc, "post-merge-abort")
	})
}

// TestConcurrentCheckpointIngestReads is the -race satellite: writers,
// readers, and a checkpoint loop run concurrently; readers pinned to a
// snapshot must never observe a torn view across a checkpoint (whose
// whole-corpus build runs outside the writer lock), and the checkpointed
// directory must recover to the complete acknowledged history.
func TestConcurrentCheckpointIngestReads(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 10
		base := seedCorpus(371, 40, vocab)
		script := genScript(372, base.clone(), 30, vocab)
		queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}
		expected := expectedByGen(t, base, script, queries)

		cfg := walConfig(shards, t.TempDir())
		c := open(t, base, cfg)

		var (
			wg   sync.WaitGroup
			done = make(chan struct{})
			errs = make(chan string, 64)
		)
		wg.Add(1)
		go func() { // writer
			defer wg.Done()
			defer close(done)
			for i, m := range script {
				if err := mutate(c, m); err != nil {
					errs <- fmt.Sprintf("writer step %d: %v", i, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() { // checkpointer
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := c.Checkpoint(); err != nil {
					errs <- fmt.Sprintf("checkpoint: %v", err)
					return
				}
			}
		}()
		for reader := 0; reader < 3; reader++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastGen uint64
				for {
					select {
					case <-done:
						return
					default:
					}
					for qi, q := range queries {
						r, err := c.Search(q)
						if err != nil {
							errs <- fmt.Sprintf("reader q%d: %v", qi, err)
							return
						}
						if r.Gen < lastGen || r.Gen > uint64(len(script)) {
							errs <- fmt.Sprintf("reader q%d: gen %d out of order (last %d)", qi, r.Gen, lastGen)
							return
						}
						lastGen = r.Gen
						if got, want := bitsOf(r.Docs), expected[r.Gen][qi]; !sameDocs(got, want) {
							errs <- fmt.Sprintf("reader q%d gen %d: torn view across checkpoint", qi, r.Gen)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
		// One final checkpoint so the directory's watermark is meaningful,
		// then crash and recover: the acknowledged prefix must be complete.
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		c.Crash()
		r := open(t, base, cfg)
		defer r.Close()
		if got := r.Gen(); got != uint64(len(script)) {
			t.Fatalf("recovered gen %d, want %d", got, len(script))
		}
		if err := r.Quiesce(); err != nil {
			t.Fatal(err)
		}
		lc := base.clone()
		for _, m := range script {
			applyLogical(lc, m)
		}
		checkLiveParity(t, r, lc, queryLog(vocab), "post-checkpoint-race")
	})
}

// TestAutoCheckpointCadence: CheckpointEvery triggers background
// checkpoints without explicit calls.
func TestAutoCheckpointCadence(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 10
		base := seedCorpus(381, 30, vocab)
		script := genScript(382, base.clone(), 24, vocab)
		cfg := walConfig(shards, t.TempDir())
		cfg.CheckpointEvery = 8
		lc := base.clone()
		c := open(t, base, cfg)
		applyPrefix(t, c, lc, script, len(script))
		deadline := time.Now().Add(10 * time.Second)
		for {
			if st := c.Stats(); st.WAL.Checkpoints > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no automatic checkpoint committed over %d mutations at cadence 8", len(script))
			}
			time.Sleep(time.Millisecond)
		}
		c.Close() // drains the background checkpoint goroutine
		r := open(t, base, cfg)
		defer r.Close()
		if got := r.Gen(); got != uint64(len(script)) {
			t.Fatalf("recovered gen %d, want %d", got, len(script))
		}
		if err := r.Quiesce(); err != nil {
			t.Fatal(err)
		}
		checkLiveParity(t, r, lc, queryLog(vocab), "auto-checkpoint")
	})
}
