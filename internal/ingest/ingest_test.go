package ingest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/workload"
)

// ---------------------------------------------------------------------------
// Logical corpus: the ground truth a live cluster and a fresh build must agree
// on. Documents are token streams; building is index.Builder.AddDocument in
// ascending docID order — exactly what a from-scratch ingestion would do.
// ---------------------------------------------------------------------------

type logicalCorpus struct {
	docs map[uint32][]string
}

func newLogicalCorpus() *logicalCorpus {
	return &logicalCorpus{docs: make(map[uint32][]string)}
}

func (c *logicalCorpus) clone() *logicalCorpus {
	out := newLogicalCorpus()
	for id, toks := range c.docs {
		out.docs[id] = toks
	}
	return out
}

func (c *logicalCorpus) build(t testing.TB, codec index.Codec) *index.Index {
	t.Helper()
	ids := make([]uint32, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := index.NewBuilder(codec)
	for _, id := range ids {
		if err := b.AddDocument(id, c.docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func word(i int) string { return fmt.Sprintf("w%02d", i) }

// genDoc draws a document whose term distribution is skewed toward the
// low-numbered vocabulary words (so conjunctions actually match).
func genDoc(r *rand.Rand, vocab int) []string {
	n := 4 + r.Intn(20)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = word(int(float64(vocab) * r.Float64() * r.Float64()))
	}
	return toks
}

func seedCorpus(seed int64, docs, vocab int) *logicalCorpus {
	r := rand.New(rand.NewSource(seed))
	c := newLogicalCorpus()
	for id := 0; id < docs; id++ {
		c.docs[uint32(id)] = genDoc(r, vocab)
	}
	return c
}

// mutation is one scripted Add/Update/Delete, applied identically to the
// live cluster and the logical corpus.
type mutation struct {
	kind   mutKind
	docID  uint32
	tokens []string
}

// genScript produces a deterministic mutation script over a seeded corpus:
// adds of brand-new docIDs, whole-document updates, and deletes (including
// deletes of documents previously added or updated in the script itself).
func genScript(seed int64, c *logicalCorpus, n, vocab int) []mutation {
	r := rand.New(rand.NewSource(seed))
	live := make([]uint32, 0, len(c.docs))
	next := uint32(0)
	for id := range c.docs {
		live = append(live, id)
		if id >= next {
			next = id + 1
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	var out []mutation
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 4: // add
			out = append(out, mutation{kind: mutAdd, docID: next, tokens: genDoc(r, vocab)})
			live = append(live, next)
			next++
		case k < 7: // update an existing doc
			if len(live) == 0 {
				continue
			}
			id := live[r.Intn(len(live))]
			out = append(out, mutation{kind: mutUpdate, docID: id, tokens: genDoc(r, vocab)})
		default: // delete an existing doc
			if len(live) == 0 {
				continue
			}
			j := r.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			out = append(out, mutation{kind: mutDelete, docID: id})
		}
	}
	return out
}

// apply replays one mutation into both the live cluster and the logical
// corpus, keeping them in lockstep.
func apply(t testing.TB, c *Cluster, lc *logicalCorpus, m mutation) {
	t.Helper()
	if err := mutate(c, m); err != nil {
		t.Fatalf("mutation %+v: %v", m, err)
	}
	applyLogical(lc, m)
}

// mutate issues one scripted mutation against the live cluster.
func mutate(c *Cluster, m mutation) error {
	switch m.kind {
	case mutAdd:
		return c.Add(m.docID, m.tokens)
	case mutUpdate:
		return c.Update(m.docID, m.tokens)
	default:
		return c.Delete(m.docID)
	}
}

// applyLogical applies one mutation to the logical corpus only.
func applyLogical(lc *logicalCorpus, m mutation) {
	if m.kind == mutDelete {
		delete(lc.docs, m.docID)
	} else {
		lc.docs[m.docID] = m.tokens
	}
}

// newLive builds a live cluster over the logical corpus's fresh build.
func newLive(t testing.TB, lc *logicalCorpus, cfg ClusterConfig) *Cluster {
	t.Helper()
	c, err := NewCluster(lc.build(t, index.CodecEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cpuConfig is a CPU-only live cluster configuration at n shards.
func cpuConfig(n int) ClusterConfig {
	return ClusterConfig{Shards: n, Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}}}
}

// forShards runs body once per shard count as a "shards=n" subtest.
func forShards(t *testing.T, counts []int, body func(t *testing.T, n int)) {
	for _, n := range counts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { body(t, n) })
	}
}

// queryLog is a fixed conjunctive query mix: popular pairs, selective
// triples, and one term that only ever exists in the delta.
func queryLog(vocab int) [][]string {
	return [][]string{
		{word(0)},
		{word(0), word(1)},
		{word(1), word(2)},
		{word(0), word(2), word(3)},
		{word(3), word(5)},
		{word(vocab / 2), word(1)},
		{word(vocab - 1), word(0)},
		{"fresh-term", word(0)},
		{"no-such-term"},
	}
}

// ---------------------------------------------------------------------------
// Result comparison
// ---------------------------------------------------------------------------

type docBits struct {
	DocID uint32
	Bits  uint32
}

func bitsOf(docs []kernels.ScoredDoc) []docBits {
	out := make([]docBits, len(docs))
	for i, d := range docs {
		out[i] = docBits{DocID: d.DocID, Bits: math.Float32bits(d.Score)}
	}
	return out
}

func sameDocs(a, b []docBits) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freshBits is the reference answer: a single engine freshly built over
// the logical corpus (its default top-k, 10, matches the cluster's).
func freshBits(t testing.TB, eng *core.Engine, q []string) ([]docBits, int) {
	t.Helper()
	r, err := eng.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return bitsOf(r.Docs), r.Stats.Candidates
}

// checkLiveParity asserts the live cluster's ranked results and
// candidate counts are bit-identical to a freshly built single engine
// over the same logical corpus, for every query in the log: the
// scatter-gather merge reproduces the single-engine top-k whenever
// per-shard scores carry global statistics, live or stamped, and the
// shards' live candidate sets partition the engine's.
func checkLiveParity(t *testing.T, c *Cluster, lc *logicalCorpus, queries [][]string, tag string) {
	t.Helper()
	fresh, err := core.New(lc.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for qi, q := range queries {
		cr, err := c.Search(q)
		if err != nil {
			t.Fatalf("%s q%d live: %v", tag, qi, err)
		}
		fb, fc := freshBits(t, fresh, q)
		cand := 0
		for _, ss := range cr.Stats.Shards {
			cand += ss.Query.Candidates
		}
		if cand != fc {
			t.Errorf("%s q%d %v: candidates live=%d fresh=%d", tag, qi, q, cand, fc)
		}
		if cb := bitsOf(cr.Docs); !sameDocs(cb, fb) {
			t.Errorf("%s q%d %v: docs diverge\n live=%v\nfresh=%v", tag, qi, q, cb, fb)
		}
	}
}

// ---------------------------------------------------------------------------
// Live parity: results during active mutation, CPU-only and hybrid. A
// single node is the one-shard cluster; the sharded variant runs the same
// body (TestClusterLiveParity).
// ---------------------------------------------------------------------------

func TestLiveParity(t *testing.T) { testLiveParity(t, 1) }

func testLiveParity(t *testing.T, shards int) {
	const vocab = 16
	base := seedCorpus(11, 120, vocab)
	script := genScript(12, base.clone(), 90, vocab)
	// Seed the delta-only term: a doc added mid-script that is the sole
	// holder of "fresh-term" until a merge folds it in.
	script = append(script, mutation{
		kind: mutUpdate, docID: 9_000, tokens: []string{"fresh-term", word(0), word(0), word(1)},
	})

	modes := map[string]core.Config{
		"cpu":    {Mode: core.CPUOnly},
		"hybrid": {Mode: core.Hybrid},
	}
	for name, ecfg := range modes {
		t.Run(name, func(t *testing.T) {
			lc := base.clone()
			c := newLive(t, lc, ClusterConfig{Shards: shards, Cluster: cluster.Config{Engine: ecfg}})
			defer c.Close()
			queries := queryLog(vocab)
			checkLiveParity(t, c, lc, queries, "seed")
			for i, m := range script {
				apply(t, c, lc, m)
				if (i+1)%15 == 0 || i == len(script)-1 {
					checkLiveParity(t, c, lc, queries, fmt.Sprintf("step%d", i+1))
				}
				if i == len(script)/2 {
					// Mid-life shard merges: segments swap under traffic,
					// stats stamps go best-effort, parity holds.
					for s := 0; s < shards; s++ {
						if err := c.MergeShard(s); err != nil {
							t.Fatalf("merge shard %d: %v", s, err)
						}
					}
					checkLiveParity(t, c, lc, queries, "post-merge")
				}
			}
			if got, want := c.Gen(), uint64(len(script)); got != want {
				t.Errorf("gen = %d, want %d", got, want)
			}
			st := c.Stats()
			if st.Adds+st.Updates+st.Deletes != int64(len(script)) {
				t.Errorf("mutation counters %d+%d+%d != %d", st.Adds, st.Updates, st.Deletes, len(script))
			}
			if st.Merges != int64(shards) {
				t.Errorf("merges = %d, want %d", st.Merges, shards)
			}
			if st.Shards != shards || len(st.ShardDocs) != shards {
				t.Errorf("shards = %d (docs %v), want %d", st.Shards, st.ShardDocs, shards)
			}
			// Keep mutating past the merges: parity survives the swaps.
			for _, m := range genScript(13, lc.clone(), 30, vocab) {
				apply(t, c, lc, m)
			}
			checkLiveParity(t, c, lc, queries, "post-merge-mutations")
		})
	}
}

// ---------------------------------------------------------------------------
// Quiesced golden parity: after Quiesce the live cluster must be
// byte-identical to a cluster freshly built over the same logical corpus —
// docs, candidate counts, migration decisions, op traces, and simulated
// timings — at one and two devices, with the batching stage off and on. At
// one shard each shard record must also match a fresh single engine: the
// one-shard cluster *is* the single node.
// ---------------------------------------------------------------------------

type goldenOp struct {
	Stage    string
	Where    string
	Ratio    float64
	ShortLen int
	LongLen  int
	OutLen   int
	TookNS   int64
}

type goldenPlanOp struct {
	Kind      string
	Where     string
	Device    int
	Peer      bool
	Term      string
	NIn, NOut int
	Bytes     int64
	TookNS    int64
	BatchSize int
}

type goldenQuery struct {
	Docs       []docBits
	Candidates int
	Migrated   bool
	GPUWaitNS  int64
	LatencyNS  int64
	Ops        []goldenOp
	Plan       []goldenPlanOp
}

func golden(docs []kernels.ScoredDoc, st core.QueryStats) goldenQuery {
	g := goldenQuery{
		Docs:       bitsOf(docs),
		Candidates: st.Candidates,
		Migrated:   st.Migrated,
		GPUWaitNS:  int64(st.GPUWait),
		LatencyNS:  int64(st.Latency),
	}
	for _, op := range st.Ops {
		g.Ops = append(g.Ops, goldenOp{
			Stage: op.Stage, Where: op.Where.String(), Ratio: op.Ratio,
			ShortLen: op.ShortLen, LongLen: op.LongLen, OutLen: op.OutLen,
			TookNS: int64(op.Took),
		})
	}
	for _, op := range st.Plan {
		// BatchID is a device-lifetime counter, deliberately excluded.
		g.Plan = append(g.Plan, goldenPlanOp{
			Kind: op.Kind.String(), Where: op.Where.String(), Device: op.Device,
			Peer: op.Peer, Term: op.Term, NIn: op.NIn, NOut: op.NOut,
			Bytes: op.Bytes, TookNS: int64(op.Took), BatchSize: op.BatchSize,
		})
	}
	return g
}

// clusterGolden renders the comparison-relevant portion of a cluster
// result: ranked docs (bit-exact scores), the scatter-gather timing, and
// each shard's full execution record.
func clusterGolden(r *cluster.Result) string {
	s := fmt.Sprintf("docs=%v lat=%v max=%v merge=%v",
		bitsOf(r.Docs), r.Stats.Latency, r.Stats.MaxShard, r.Stats.MergeTime)
	for _, sh := range r.Stats.Shards {
		s += fmt.Sprintf(" [s%dr%d eff=%v cpu=%v gpu=%v %+v]",
			sh.Shard, sh.Replica, sh.Effective, sh.Query.CPUTime, sh.Query.GPUTime, golden(nil, sh.Query))
	}
	return s
}

func TestQuiescedGoldenParity(t *testing.T) {
	for _, devices := range []int{1, 2} {
		for _, batch := range []time.Duration{0, 200 * time.Microsecond} {
			name := fmt.Sprintf("devices=%d/batch=%v", devices, batch > 0)
			t.Run(name, func(t *testing.T) {
				testQuiescedGoldenParity(t, 1, core.Config{
					Mode: core.Hybrid, Devices: devices, BatchWindow: batch,
				}, index.CodecEF)
			})
		}
	}
}

func testQuiescedGoldenParity(t *testing.T, shards int, ecfg core.Config, codec index.Codec) {
	const vocab = 16
	lc := seedCorpus(21, 150, vocab)
	script := genScript(22, lc.clone(), 80, vocab)

	ccfg := cluster.Config{Engine: ecfg}
	live, err := NewCluster(lc.build(t, codec), ClusterConfig{Shards: shards, Cluster: ccfg, Codec: CodecAuto})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	queries := queryLog(vocab)
	for i, m := range script {
		apply(t, live, lc, m)
		if i%17 == 0 { // keep read traffic flowing while mutating
			if _, err := live.Search(queries[i%len(queries)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.MergeShard(0); err != nil { // a best-effort merge first
		t.Fatal(err)
	}
	if err := live.Quiesce(); err != nil {
		t.Fatal(err)
	}
	st := live.Stats()
	if st.Lag() != 0 {
		t.Fatalf("post-quiesce lag = %d", st.Lag())
	}
	if st.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", st.Rebuilds)
	}

	ixs, err := workload.PartitionIndex(lc.build(t, codec), shards)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.New(ixs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var single *core.Engine
	if shards == 1 {
		scfg := ecfg
		scfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
		if single, err = core.New(lc.build(t, codec), scfg); err != nil {
			t.Fatal(err)
		}
		defer single.Close()
	}
	for qi, q := range queries {
		lr, err := live.Search(q)
		if err != nil {
			t.Fatalf("q%d live: %v", qi, err)
		}
		rr, err := ref.Search(nil, q)
		if err != nil {
			t.Fatalf("q%d ref: %v", qi, err)
		}
		if got, want := clusterGolden(lr.Result), clusterGolden(rr); got != want {
			t.Errorf("q%d %v: quiesced cluster diverges from fresh build\n live=%s\nfresh=%s", qi, q, got, want)
		}
		if single == nil {
			continue
		}
		sr, err := single.Search(q)
		if err != nil {
			t.Fatalf("q%d single: %v", qi, err)
		}
		got := fmt.Sprintf("%+v", golden(lr.Docs, lr.Stats.Shards[0].Query))
		if want := fmt.Sprintf("%+v", golden(sr.Docs, sr.Stats)); got != want {
			t.Errorf("q%d %v: one-shard cluster diverges from a single engine\n live=%s\nsingle=%s", qi, q, got, want)
		}
		if lr.Stats.Latency != sr.Stats.Latency {
			t.Errorf("q%d %v: one-shard latency %v != single engine %v", qi, q, lr.Stats.Latency, sr.Stats.Latency)
		}
	}
}

// ---------------------------------------------------------------------------
// Merged segments vs fresh build: each shard's re-encoded segment must match
// the same shard of a from-scratch partitioned build structurally — same
// dictionary, same compressed blocks (both codecs), same statistics —
// including tombstone-only lists (term leaves the dictionary) and delta-only
// terms (term enters it), through both the per-shard merge and the Quiesce
// rebuild.
// ---------------------------------------------------------------------------

func TestMergedIndexMatchesFreshBuild(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		lc := newLogicalCorpus()
		// Hand-built corpus: "rare" lives only in docs 3 and 7; "solo" only
		// in doc 5. Deleting 3+7 must drop "rare" from the merged
		// dictionary.
		for id := 0; id < 40; id++ {
			toks := []string{word(id % 4), word(id % 7), word(0)}
			switch id {
			case 3, 7:
				toks = append(toks, "rare")
			case 5:
				toks = append(toks, "solo", "solo")
			}
			lc.docs[uint32(id)] = toks
		}
		c, err := NewCluster(lc.build(t, index.CodecBoth), ClusterConfig{
			Shards: shards, Cluster: cpuConfig(shards).Cluster, Codec: CodecAuto,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// An empty-delta merge is a no-op.
		for s := 0; s < shards; s++ {
			if err := c.MergeShard(s); err != nil {
				t.Fatal(err)
			}
		}
		if c.Stats().Merges != 0 {
			t.Fatalf("empty merge committed: %+v", c.Stats())
		}

		muts := []mutation{
			{kind: mutDelete, docID: 3},
			{kind: mutDelete, docID: 7}, // "rare" now tombstone-only
			{kind: mutUpdate, docID: 5, tokens: []string{word(0), word(1), "newterm"}},
			{kind: mutAdd, docID: 64, tokens: []string{"newterm", word(2), word(2)}},
			{kind: mutUpdate, docID: 12, tokens: []string{word(3), word(3), word(5)}},
		}
		for _, m := range muts {
			apply(t, c, lc, m)
		}
		for s := 0; s < shards; s++ {
			if err := c.MergeShard(s); err != nil {
				t.Fatal(err)
			}
		}
		checkShardSegments(t, c, lc.build(t, index.CodecBoth), "merged")
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
		checkShardSegments(t, c, lc.build(t, index.CodecBoth), "quiesced")
	})
}

// checkShardSegments compares every live shard segment with the same shard
// of want partitioned at the live shard count. GlobalN is a serving stamp,
// not structure: merged segments leave it to the query overlays.
func checkShardSegments(t *testing.T, c *Cluster, want *index.Index, tag string) {
	t.Helper()
	parts, err := workload.PartitionIndex(want, c.Shards())
	if err != nil {
		t.Fatal(err)
	}
	for s, w := range parts {
		got := c.Cluster().ShardIndex(s)
		tag := fmt.Sprintf("%s shard %d", tag, s)
		checkIndexParity(t, got, w, tag)
		if _, ok := got.Lookup("rare"); ok {
			t.Errorf("%s: fully tombstoned term 'rare' still in the dictionary", tag)
		}
		for _, term := range w.Terms() {
			gp, _ := got.Lookup(term)
			wp, _ := w.Lookup(term)
			if gp == nil || gp.N != wp.N {
				t.Errorf("%s: term %q: list %+v, want N = %d", tag, term, gp, wp.N)
				continue
			}
			if fmt.Sprint(gp.EF.Decompress()) != fmt.Sprint(wp.EF.Decompress()) {
				t.Errorf("%s: term %q: EF postings diverge", tag, term)
			}
			if (gp.PFD == nil) != (wp.PFD == nil) {
				t.Errorf("%s: term %q: PFD presence %v vs %v", tag, term, gp.PFD != nil, wp.PFD != nil)
			} else if gp.PFD != nil && fmt.Sprint(gp.PFD.Decompress()) != fmt.Sprint(wp.PFD.Decompress()) {
				t.Errorf("%s: term %q: PFD postings diverge", tag, term)
			}
			for i := 0; i < gp.N; i++ {
				if gp.FreqOf(i) != wp.FreqOf(i) {
					t.Errorf("%s: term %q: freq[%d] = %d, want %d", tag, term, i, gp.FreqOf(i), wp.FreqOf(i))
					break
				}
			}
			if fmt.Sprint(gp.Skips) != fmt.Sprint(wp.Skips) {
				t.Errorf("%s: term %q: skip pointers diverge", tag, term)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Merge aborts: injected faults on the merge path abort the attempt without
// tearing the published snapshot, and bounded retries recover. The shard
// merge sites are "ingest.s<shard>.merge"; the same rules also cover the
// serving sites ("s<shard>r<replica>"), so tests burn those opportunities
// with throwaway queries before checking parity.
// ---------------------------------------------------------------------------

func TestMergeAbortRetries(t *testing.T) { testMergeAbortRetries(t, 1) }

func testMergeAbortRetries(t *testing.T, shards int) {
	const vocab = 16
	lc := seedCorpus(51, 80, vocab)
	// First two merge admissions per site fail, the third goes through.
	inj := fault.NewInjector(fault.Plan{
		Seed:  7,
		Rules: []fault.Rule{{Kind: fault.EngineError, Rate: 1, Until: 2}},
	})
	cfg := cpuConfig(shards)
	cfg.Cluster.Fault = inj
	c := newLive(t, lc, cfg)
	defer c.Close()

	for _, m := range genScript(52, lc.clone(), 20, vocab) {
		apply(t, c, lc, m)
	}
	for s := 0; s < shards; s++ {
		if err := c.MergeShard(s); err != nil {
			t.Fatalf("merge shard %d should survive 2 aborts with default retries: %v", s, err)
		}
	}
	st := c.Stats()
	if st.Aborts != int64(2*shards) {
		t.Errorf("aborts = %d, want %d (2 per shard merge site)", st.Aborts, 2*shards)
	}
	if st.Merges != int64(shards) || st.DeltaDocs != 0 {
		t.Errorf("merges = %d deltaDocs = %d, want %d merged clean", st.Merges, st.DeltaDocs, shards)
	}
	for i := 0; i < 2; i++ {
		_, _ = c.Search([]string{word(0)})
	}
	checkLiveParity(t, c, lc, queryLog(vocab), "post-retry")
}

func TestMergeAbortNeverTearsSnapshot(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 12
		lc := seedCorpus(41, 60, vocab)
		// Each site's first admission fails: with no retries, the one merge
		// attempt per shard aborts.
		cfg := cpuConfig(shards)
		cfg.Cluster.Fault = fault.NewInjector(fault.Plan{Seed: 6, Rules: []fault.Rule{
			{Kind: fault.EngineError, Rate: 1, Until: 1},
		}})
		cfg.MergeRetries = -1
		c := newLive(t, lc, cfg)
		defer c.Close()
		for _, m := range genScript(42, lc.clone(), 20, vocab) {
			apply(t, c, lc, m)
		}
		before := c.Stats()
		for s := 0; s < shards; s++ {
			if err := c.MergeShard(s); !fault.IsEngineFault(err) {
				t.Fatalf("merge shard %d error = %v, want injected engine fault", s, err)
			}
		}
		after := c.Stats()
		if after.Merges != 0 || after.Aborts != int64(shards) {
			t.Errorf("merges=%d aborts=%d, want 0/%d", after.Merges, after.Aborts, shards)
		}
		if after.DeltaDocs != before.DeltaDocs || after.Gen != before.Gen ||
			fmt.Sprint(after.ShardDelta) != fmt.Sprint(before.ShardDelta) {
			t.Errorf("aborted merge mutated writer state: %+v vs %+v", before, after)
		}
		// Reads after the failed merges are still exact.
		_, _ = c.Search([]string{word(0)})
		checkLiveParity(t, c, lc, queryLog(vocab), "post-abort")
	})
}

// ---------------------------------------------------------------------------
// Merge/query interference: merge re-encoding occupies the shard's device
// lanes, so a query arriving behind it queues.
// ---------------------------------------------------------------------------

func TestMergeInterferenceOnSharedDevice(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 16
		lc := seedCorpus(51, 400, vocab)
		c := newLive(t, lc, ClusterConfig{
			Shards: shards, Cluster: cluster.Config{Engine: core.Config{Mode: core.Hybrid}},
		})
		defer c.Close()
		for _, m := range genScript(52, lc.clone(), 120, vocab) {
			apply(t, c, lc, m)
		}
		for s := 0; s < shards; s++ {
			if err := c.MergeShardAt(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats()
		if st.MergeDevice <= 0 {
			t.Errorf("merge billed no device time: %+v", st)
		}
		if st.MergeCPU <= 0 {
			t.Errorf("merge billed no CPU encode time: %+v", st)
		}
		// A query arriving while the merges' device work is still queued
		// waits on every shard.
		r, err := c.SearchAt([]string{word(0), word(1)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ss := range r.Stats.Shards {
			if ss.Query.GPUWait <= 0 {
				t.Errorf("shard %d query behind merge backlog saw no GPUWait", ss.Shard)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Mutation validation: bad requests are typed client errors and leave no
// trace in the delta.
// ---------------------------------------------------------------------------

func TestMutationValidation(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		c := newLive(t, seedCorpus(61, 10, 8), cpuConfig(shards))
		defer c.Close()

		cases := []struct {
			name string
			call func() error
		}{
			{"add existing", func() error { return c.Add(3, []string{"x"}) }},
			{"add empty", func() error { return c.Add(100, nil) }},
			{"update empty", func() error { return c.Update(3, nil) }},
			{"delete missing", func() error { return c.Delete(100) }},
		}
		for _, tc := range cases {
			err := tc.call()
			if err == nil || !IsInvalid(err) {
				t.Errorf("%s: err = %v, want invalid-mutation error", tc.name, err)
			}
		}
		if c.Gen() != 0 || c.Stats().DeltaDocs != 0 {
			t.Errorf("rejected mutations advanced gen to %d (delta %d)", c.Gen(), c.Stats().DeltaDocs)
		}
		// Upsert via Update of a brand-new doc is legal; re-adding after a
		// delete is legal too.
		if err := c.Update(200, []string{"x", "y"}); err != nil {
			t.Errorf("upsert update: %v", err)
		}
		if err := c.Delete(200); err != nil {
			t.Errorf("delete upserted doc: %v", err)
		}
		if err := c.Add(200, []string{"z"}); err != nil {
			t.Errorf("re-add after delete: %v", err)
		}
	})
}

// ---------------------------------------------------------------------------
// AutoMerge: crossing the threshold kicks off a background merge that
// eventually drains the delta.
// ---------------------------------------------------------------------------

func TestAutoMergeBackground(t *testing.T) {
	forShards(t, []int{1, 2}, func(t *testing.T, shards int) {
		const vocab = 12
		lc := seedCorpus(71, 50, vocab)
		cfg := cpuConfig(shards)
		cfg.MergeThreshold = 10
		cfg.AutoMerge = true
		c := newLive(t, lc, cfg)
		for _, m := range genScript(72, lc.clone(), 40, vocab) {
			apply(t, c, lc, m)
		}
		// The background merge goroutine commits asynchronously; wait for it.
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Merges == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if c.Stats().Merges == 0 {
			t.Fatalf("no background merge committed: %+v", c.Stats())
		}
		checkLiveParity(t, c, lc, queryLog(vocab), "post-automerge")

		c.Close() // drains any still-in-flight background merge
		if _, err := c.Search([]string{word(0)}); err != ErrClosed {
			t.Errorf("search after close: err = %v, want ErrClosed", err)
		}
		if err := c.Add(9_999, []string{"x"}); err != ErrClosed {
			t.Errorf("add after close: err = %v, want ErrClosed", err)
		}
		if err := c.MergeShard(0); err != ErrClosed {
			t.Errorf("merge after close: err = %v, want ErrClosed", err)
		}
	})
}

// ---------------------------------------------------------------------------
// Snapshot isolation under -race: concurrent mutations, shard merges, a
// split, and readers. Every result must be bit-identical to a quiesced
// corpus at the generation its snapshot reports — no torn reads — and each
// reader observes a monotonically advancing generation.
// ---------------------------------------------------------------------------

func TestConcurrentSnapshotIsolation(t *testing.T) {
	testConcurrentSnapshotIsolation(t, 1, core.Config{Mode: core.Hybrid})
}

// expectedByGen returns, per generation g, each query's fresh-build
// result over the corpus holding the first g mutations (CPU-only
// reference: all modes are bit-identical on ranked docs).
func expectedByGen(t *testing.T, base *logicalCorpus, script []mutation, queries [][]string) [][][]docBits {
	expected := make([][][]docBits, len(script)+1)
	lc := base.clone()
	for g := 0; g <= len(script); g++ {
		if g > 0 {
			applyLogical(lc, script[g-1])
		}
		eng, err := core.New(lc.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
		if err != nil {
			t.Fatal(err)
		}
		expected[g] = make([][]docBits, len(queries))
		for qi, q := range queries {
			expected[g][qi], _ = freshBits(t, eng, q)
		}
		eng.Close()
	}
	return expected
}

func testConcurrentSnapshotIsolation(t *testing.T, shards int, ecfg core.Config) {
	const vocab = 12
	base := seedCorpus(61, 40, vocab)
	script := genScript(62, base.clone(), 30, vocab)
	queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}
	expected := expectedByGen(t, base, script, queries)

	c := newLive(t, base, ClusterConfig{
		Shards:         shards,
		Cluster:        cluster.Config{Engine: ecfg},
		MergeThreshold: 8,
		AutoMerge:      true,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: script + explicit merges + one mid-life split
		defer wg.Done()
		defer close(stop)
		for i, m := range script {
			if err := mutate(c, m); err != nil {
				t.Errorf("writer step %d: %v", i, err)
				return
			}
			if (i+1)%12 == 0 {
				if err := c.MergeShard(i % c.Shards()); err != nil {
					t.Errorf("writer merge: %v", err)
				}
			}
			if i == len(script)/2 {
				if err := c.Split(); err != nil {
					t.Errorf("writer split: %v", err)
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			qi := r % len(queries)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Search(queries[qi])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Gen < lastGen {
					t.Errorf("reader %d: gen went backwards %d -> %d", r, lastGen, res.Gen)
					return
				}
				lastGen = res.Gen
				if res.Gen > uint64(len(script)) {
					t.Errorf("reader %d: gen %d beyond script", r, res.Gen)
					return
				}
				if got, want := bitsOf(res.Docs), expected[res.Gen][qi]; !sameDocs(got, want) {
					t.Errorf("reader %d gen %d q%d: torn result\n got=%v\nwant=%v", r, res.Gen, qi, got, want)
					return
				}
				qi = (qi + 1) % len(queries)
			}
		}(r)
	}
	wg.Wait()

	// Final quiesce: the surviving cluster collapses to the fully merged
	// corpus and stays exact.
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		final, err := c.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bitsOf(final.Docs), expected[len(script)][qi]; !sameDocs(got, want) {
			t.Errorf("final quiesced q%d: docs diverge\n got=%v\nwant=%v", qi, got, want)
		}
	}
	c.Close()
	if _, err := c.Search(queries[0]); err != ErrClosed {
		t.Errorf("search after close = %v, want ErrClosed", err)
	}
	if err := c.Add(99_999, []string{"x"}); err != ErrClosed {
		t.Errorf("add after close = %v, want ErrClosed", err)
	}
}
