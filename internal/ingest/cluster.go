package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// ClusterConfig parameterizes a live-ingestion cluster: per-shard deltas
// over the document-partitioned serving layer, with globally consistent
// collection statistics stamped on every query — the running analogue of
// workload.PartitionIndex's GlobalN scheme.
type ClusterConfig struct {
	// Shards is the initial shard count (0 = 1). Splits grow it.
	Shards int
	// Cluster is the serving-layer template (replicas, routing, engine
	// template, fault injector, ...). Its fault injector also covers the
	// merge path: shard s's merge admission draws at "<Site>.s<s>.merge".
	Cluster cluster.Config
	// Codec selects the compressed forms merged segments materialize
	// (CodecAuto = detect from the seed).
	Codec index.Codec
	// MergeThreshold is the per-shard delta size at which a background
	// merge becomes due (0 = explicit merges only).
	MergeThreshold int
	// AutoMerge launches background shard merges past MergeThreshold.
	AutoMerge bool
	// SplitWatermark is the per-shard live-document count that triggers
	// a background split — a full rebuild into one more shard, with
	// routing (workload.ShardOf over the new count) updated mid-flight.
	// 0 disables splits.
	SplitWatermark int
	// Site is the fault-site base name for the merge path ("ingest").
	Site string
	// MergeRetries bounds abort→retry attempts per merge
	// (0 = DefaultMergeRetries; negative = no retries).
	MergeRetries int
	// WALDir enables durability: every accepted mutation appends to a
	// per-shard write-ahead log under this directory before the caller
	// sees success, and OpenCluster recovers the directory's state.
	// Empty runs the cluster purely in memory (NewCluster exactly).
	WALDir string
	// WALSyncEvery is the per-shard appends-per-fsync policy: 0 (unset)
	// syncs every append — the durable default — negative defers syncing
	// to checkpoints and close, n > 0 syncs every n appends.
	WALSyncEvery int
	// CheckpointEvery persists a background checkpoint after that many
	// accepted mutations (0 = explicit Checkpoint calls only). Requires
	// WALDir.
	CheckpointEvery int
}

// shardState is one shard's writer-side state: its current main segment
// and the delta absorbing the shard's mutations. Guarded by Cluster.mu.
type shardState struct {
	ix   *index.Index
	d    *delta
	live int // live documents routed to this shard (watermark signal)
}

// topo is one topology incarnation: a shard count, the serving cluster
// over it, and the per-shard writer state. A split replaces the whole
// topo; per-shard merges mutate shard segments in place (under the
// commit gate, so no query observes the swap mid-flight).
type topo struct {
	n      int
	c      *cluster.Cluster
	shards []*shardState
}

// clusterSnap is the immutable state one query executes against: the
// topology, each shard's (main segment, frozen delta view) pair, and the
// global live collection statistics at one stamp. stamp advances on
// every mutation and every merge/rebuild commit, so snapshot freshness
// is one atomic compare.
type clusterSnap struct {
	topo  *topo
	mains []*index.Index
	views []*View
	gen   uint64
	stamp uint64

	numDocs int
	lenSum  uint64
	lenCnt  int
	// clean marks a fully quiesced, exactly stamped corpus: every delta
	// empty and every shard index carrying exact global statistics
	// (seed or post-rebuild state). Clean queries take the pure
	// frozen-corpus path — byte-identical to a fresh cluster build.
	clean bool
}

func (s *clusterSnap) avgDocLen() float64 {
	if s.lenCnt == 0 {
		return 0
	}
	return float64(s.lenSum) / float64(s.lenCnt)
}

// Cluster is the live-ingestion layer over the sharded serving cluster:
// mutations route to per-shard deltas by workload.ShardOf, queries pin a
// cluster-wide snapshot with globally consistent statistics, background
// merges fold shard deltas into re-encoded shard segments, and a
// shard-size watermark triggers splits that re-partition the corpus into
// more shards with routing updated mid-flight.
type Cluster struct {
	cfg     ClusterConfig
	codec   index.Codec
	cpu     hwmodel.CPUModel
	site    string
	retries int
	bm25    rank.BM25Params

	// gate is the commit gate: queries hold it shared for their whole
	// execution; segment swaps and topology changes hold it exclusive.
	// That pairs each query's pinned views with the engine incarnations
	// that match them — a swap never tears an in-flight query.
	gate sync.RWMutex

	// mu is the writer lock: mutations, freezes, commit bookkeeping.
	mu sync.Mutex
	t  *topo
	// liveLens is the authoritative live document-length table
	// (liveLens[d] == 0 ⇔ d is not live); lenSum/lenCnt/numDocs are the
	// exact index.Builder aggregates over it, maintained incrementally.
	liveLens []uint32
	lenSum   uint64
	lenCnt   int
	numDocs  int
	gen      uint64
	// exact marks shard indexes whose global stamps (GlobalN, NumDocs,
	// DocLens, AvgDocLen) are exact for the live corpus — true from the
	// seed or a rebuild, false after a best-effort per-shard merge.
	exact bool
	stamp uint64

	stampA atomic.Uint64
	genA   atomic.Uint64
	snap   atomic.Pointer[clusterSnap]

	// mergeMu serializes merges and rebuilds.
	mergeMu   sync.Mutex
	merging   atomic.Bool
	splitting atomic.Bool
	bg        sync.WaitGroup
	closing   atomic.Bool

	// store is the write-ahead log (nil without WALDir). Appends happen
	// under c.mu before a mutation is acknowledged.
	store     *wal.Store
	ckpting   atomic.Bool
	sinceCkpt atomic.Int64

	statsMu sync.Mutex
	st      ClusterStats
}

// ClusterStats is the cluster-ingestion telemetry surface.
type ClusterStats struct {
	// Shards is the current shard count (splits grow it).
	Shards int    `json:"shards"`
	Gen    uint64 `json:"gen"`
	// DeltaDocs / Tombstones total the pending (unmerged) records across
	// shards — the freshness signal.
	DeltaDocs  int   `json:"delta_docs"`
	Tombstones int   `json:"tombstones"`
	LiveDocs   int   `json:"live_docs"`
	Adds       int64 `json:"adds"`
	Updates    int64 `json:"updates"`
	Deletes    int64 `json:"deletes"`
	Merges     int64 `json:"merges"`
	Aborts     int64 `json:"aborts"`
	MergedDocs int64 `json:"merged_docs"`
	// Rebuilds counts full re-partitions (Quiesce and splits); Splits
	// counts the ones that grew the shard count.
	Rebuilds    int64         `json:"rebuilds"`
	Splits      int64         `json:"splits"`
	MergeDevice time.Duration `json:"merge_device_ns"`
	MergeCPU    time.Duration `json:"merge_cpu_ns"`
	MergeStall  time.Duration `json:"merge_stall_ns"`
	// ShardDocs / ShardDelta break live and pending documents down per
	// shard (the split watermark's view).
	ShardDocs  []int `json:"shard_docs"`
	ShardDelta []int `json:"shard_delta"`
	// WAL is the durability surface (nil without a WAL): append/sync
	// counters aggregated across shard logs plus recovery accounting.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// Lag returns the pending records not yet folded into shard segments —
// the freshness signal /healthz compares against its threshold.
func (s ClusterStats) Lag() uint64 { return uint64(s.DeltaDocs) }

// ErrClosed is returned by mutations, merges, and queries issued after
// Close.
var ErrClosed = errors.New("ingest: engine closed")

// CodecAuto asks NewCluster/OpenCluster to detect the codec from the
// seed index.
const CodecAuto index.Codec = -1

// detectCodec mirrors workload.PartitionIndex's probe: any term with a
// PForDelta form means the index was built with CodecBoth.
func detectCodec(ix *index.Index) index.Codec {
	for _, t := range ix.Terms() {
		pl, _ := ix.Lookup(t)
		if pl.PFD != nil {
			return index.CodecBoth
		}
		return index.CodecEF
	}
	return index.CodecEF
}

type mutKind int

const (
	mutAdd mutKind = iota
	mutUpdate
	mutDelete
)

// NewCluster builds a live-ingestion cluster over a seed index,
// partitioned into cfg.Shards shards. The seed may be empty
// (index.NewBuilder(...).Build() with no documents) to start from a
// blank corpus; a single node is Shards: 1.
func NewCluster(seed *index.Index, cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	c := &Cluster{
		cfg:     cfg,
		codec:   cfg.Codec,
		cpu:     cfg.Cluster.CPU,
		site:    cfg.Site,
		retries: cfg.MergeRetries,
		exact:   true,
	}
	if c.cpu == (hwmodel.CPUModel{}) {
		c.cpu = hwmodel.DefaultCPU()
	}
	if c.site == "" {
		c.site = "ingest"
	}
	if c.retries == 0 {
		c.retries = DefaultMergeRetries
	}
	if cfg.Codec == CodecAuto {
		c.codec = detectCodec(seed)
	}
	c.bm25 = cfg.Cluster.Engine.BM25
	if c.bm25 == (rank.BM25Params{}) {
		c.bm25 = rank.DefaultBM25()
	}

	c.liveLens = make([]uint32, len(seed.DocLens))
	copy(c.liveLens, seed.DocLens)
	for _, l := range c.liveLens {
		if l > 0 {
			c.lenSum += uint64(l)
			c.lenCnt++
		}
	}
	c.numDocs = seed.NumDocs

	t, err := c.newTopo(seed, cfg.Shards)
	if err != nil {
		return nil, err
	}
	c.t = t
	c.publishLocked()
	return c, nil
}

// newTopo partitions a global index into n shards and builds the serving
// cluster plus fresh per-shard writer state over it.
func (c *Cluster) newTopo(global *index.Index, n int) (*topo, error) {
	ixs, err := workload.PartitionIndex(global, n)
	if err != nil {
		return nil, err
	}
	cc, err := cluster.New(ixs, c.cfg.Cluster)
	if err != nil {
		return nil, err
	}
	t := &topo{n: n, c: cc, shards: make([]*shardState, n)}
	for s, ix := range ixs {
		t.shards[s] = &shardState{ix: ix, d: newDelta()}
	}
	for d, l := range c.liveLens {
		if l > 0 {
			t.shards[workload.ShardOf(uint32(d), n)].live++
		}
	}
	return t, nil
}

// Close drains background merges/splits, waits out in-flight queries,
// and releases every shard engine's device state. With a WAL attached,
// Close is a durability barrier: every acknowledged mutation is synced
// to disk before Close returns, so a clean shutdown loses nothing even
// under a deferred-sync policy.
func (c *Cluster) Close() {
	if c.store != nil {
		c.store.Sync() // flush before draining; store.Close finishes the job
	}
	c.closing.Store(true)
	c.bg.Wait()
	c.gate.Lock()
	c.mu.Lock()
	c.t.c.Close()
	c.mu.Unlock()
	c.gate.Unlock()
	c.store.Close()
}

// Shards returns the current shard count.
func (c *Cluster) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.n
}

// Gen returns the writer generation (total accepted mutations).
func (c *Cluster) Gen() uint64 { return c.genA.Load() }

// Cluster returns the current serving cluster (telemetry surface). The
// pointer is only safe for reads that tolerate a concurrent rebuild;
// queries must go through Search.
func (c *Cluster) Cluster() *cluster.Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.c
}

// Add inserts a new document (docID must not be live).
func (c *Cluster) Add(docID uint32, tokens []string) error {
	return c.mutate(docID, tokens, mutAdd)
}

// Update replaces a document wholesale (upsert).
func (c *Cluster) Update(docID uint32, tokens []string) error {
	return c.mutate(docID, tokens, mutUpdate)
}

// Delete tombstones a live document.
func (c *Cluster) Delete(docID uint32) error {
	return c.mutate(docID, nil, mutDelete)
}

func (c *Cluster) mutate(docID uint32, tokens []string, kind mutKind) error {
	if c.closing.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	live := int(docID) < len(c.liveLens) && c.liveLens[docID] > 0
	switch kind {
	case mutAdd:
		if len(tokens) == 0 {
			c.mu.Unlock()
			return mutErrf("ingest: add doc %d: empty document", docID)
		}
		if live {
			c.mu.Unlock()
			return mutErrf("ingest: add doc %d: already exists (use update)", docID)
		}
	case mutUpdate:
		if len(tokens) == 0 {
			c.mu.Unlock()
			return mutErrf("ingest: update doc %d: empty document", docID)
		}
	case mutDelete:
		if !live {
			c.mu.Unlock()
			return mutErrf("ingest: delete doc %d: not found", docID)
		}
	}

	t := c.t
	s := workload.ShardOf(docID, t.n)
	// Durability barrier: the record must be in the shard's WAL before
	// the mutation is acknowledged. A failed append (wedged log, injected
	// storage fault) rejects the mutation with no state change.
	if c.store != nil {
		if err := c.store.Append(s, wal.Record{
			Gen: c.gen + 1, Op: walOp(kind), DocID: docID, Tokens: tokens,
		}); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	sh := c.applyLocked(t, s, docID, tokens, kind, c.gen+1)

	c.stamp++
	c.stampA.Store(c.stamp)
	c.genA.Store(c.gen)
	pending := len(sh.d.docs)
	overWatermark := c.cfg.SplitWatermark > 0 && sh.live > c.cfg.SplitWatermark
	splitTo := t.n + 1
	c.mu.Unlock()

	c.statsMu.Lock()
	switch kind {
	case mutAdd:
		c.st.Adds++
	case mutUpdate:
		c.st.Updates++
	case mutDelete:
		c.st.Deletes++
	}
	c.statsMu.Unlock()

	if overWatermark && !c.closing.Load() && c.splitting.CompareAndSwap(false, true) {
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			defer c.splitting.Store(false)
			_ = c.rebuild(splitTo)
		}()
	} else if c.cfg.AutoMerge && c.cfg.MergeThreshold > 0 && pending >= c.cfg.MergeThreshold &&
		!c.closing.Load() && c.merging.CompareAndSwap(false, true) {
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			defer c.merging.Store(false)
			_ = c.MergeShard(s) // surfaced via ClusterStats.Aborts
		}()
	}
	if c.store != nil && c.cfg.CheckpointEvery > 0 &&
		c.sinceCkpt.Add(1) >= int64(c.cfg.CheckpointEvery) &&
		!c.closing.Load() && c.ckpting.CompareAndSwap(false, true) {
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			defer c.ckpting.Store(false)
			_ = c.Checkpoint() // failures surface via the WAL stats block
		}()
	}
	return nil
}

// applyLocked commits one accepted mutation's state change at generation
// gen: the shard delta write plus the exact global aggregate bookkeeping
// (index.Builder arithmetic — subtract the old length, add the new,
// track max-live-docID+1). Caller holds c.mu and guarantees the mutation
// was validated (mutate) or previously acknowledged (WAL replay).
func (c *Cluster) applyLocked(t *topo, s int, docID uint32, tokens []string, kind mutKind, gen uint64) *shardState {
	sh := t.shards[s]
	c.gen = gen
	rec := &docRecord{gen: gen}
	if kind == mutDelete {
		rec.deleted = true
	} else {
		rec.tf, rec.length = tokenCounts(tokens)
	}
	sh.d.gen = gen
	sh.d.put(docID, rec)

	for int(docID) >= len(c.liveLens) {
		c.liveLens = append(c.liveLens, make([]uint32, int(docID)-len(c.liveLens)+1)...)
	}
	old := c.liveLens[docID]
	if old > 0 {
		c.lenSum -= uint64(old)
		c.lenCnt--
	}
	if kind == mutDelete {
		c.liveLens[docID] = 0
		sh.live--
		if int(docID)+1 == c.numDocs {
			d := c.numDocs - 1
			for d >= 0 && c.liveLens[d] == 0 {
				d--
			}
			c.numDocs = d + 1
		}
	} else {
		c.liveLens[docID] = rec.length
		c.lenSum += uint64(rec.length)
		c.lenCnt++
		if old == 0 {
			sh.live++
		}
		if int(docID)+1 > c.numDocs {
			c.numDocs = int(docID) + 1
		}
	}
	return sh
}

// publishLocked freezes the current per-shard views and publishes the
// snapshot queries pin. Caller holds c.mu. Views of untouched shards are
// reused from the previous snapshot (freeze slices are immutable).
func (c *Cluster) publishLocked() {
	prev := c.snap.Load()
	t := c.t
	views := make([]*View, t.n)
	mains := make([]*index.Index, t.n)
	allEmpty := true
	for i, sh := range t.shards {
		mains[i] = sh.ix
		var v *View
		if prev != nil && prev.topo == t && prev.mains[i] == sh.ix && prev.views[i].gen == sh.d.gen {
			v = prev.views[i]
		} else {
			v = sh.d.freeze()
		}
		views[i] = v
		if !v.Empty() {
			allEmpty = false
		}
	}
	c.stamp++
	c.stampA.Store(c.stamp)
	c.snap.Store(&clusterSnap{
		topo: t, mains: mains, views: views,
		gen: c.gen, stamp: c.stamp,
		numDocs: c.numDocs, lenSum: c.lenSum, lenCnt: c.lenCnt,
		clean: c.exact && allEmpty,
	})
}

func (c *Cluster) refresh() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.snap.Load(); s != nil && s.stamp == c.stamp {
		return
	}
	c.publishLocked()
}

// acquireFresh returns the freshest snapshot with the commit gate held
// shared; the caller must c.gate.RUnlock() when the query finishes.
func (c *Cluster) acquireFresh() (*clusterSnap, error) {
	for {
		if c.closing.Load() {
			return nil, ErrClosed
		}
		if c.snap.Load().stamp != c.stampA.Load() {
			c.refresh()
		}
		c.gate.RLock()
		if c.closing.Load() {
			c.gate.RUnlock()
			return nil, ErrClosed
		}
		s := c.snap.Load()
		if s.stamp == c.stampA.Load() {
			return s, nil
		}
		c.gate.RUnlock()
	}
}

// ClusterResult is a completed cluster query plus the writer generation
// its snapshot observed.
type ClusterResult struct {
	*cluster.Result
	Gen uint64
}

// Search scatter-gathers one conjunctive query against the freshest
// cluster snapshot.
func (c *Cluster) Search(terms []string) (*ClusterResult, error) {
	return c.search(nil, terms, 0, false, cluster.QueryOpts{})
}

// SearchOptsContext is Search with a cancellation context and per-query
// overload options (deadline budget, criticality class), threaded
// through to the underlying cluster. Zero opts is Search exactly.
func (c *Cluster) SearchOptsContext(ctx context.Context, terms []string, qo cluster.QueryOpts) (*ClusterResult, error) {
	return c.search(ctx, terms, 0, false, qo)
}

// SearchAt runs one cluster query arriving at an explicit simulated time
// on every shard runtime's timeline (the load-study entry point).
func (c *Cluster) SearchAt(terms []string, arrival time.Duration) (*ClusterResult, error) {
	return c.search(nil, terms, arrival, true, cluster.QueryOpts{})
}

func (c *Cluster) search(ctx context.Context, terms []string, arrival time.Duration, timed bool, qo cluster.QueryOpts) (*ClusterResult, error) {
	s, err := c.acquireFresh()
	if err != nil {
		return nil, err
	}
	defer c.gate.RUnlock()

	var ov cluster.Overlay
	if !s.clean {
		ov = c.overlayFor(s, terms)
	}
	var res *cluster.Result
	if timed {
		res, err = s.topo.c.SearchOverlayAtWith(ctx, terms, arrival, ov, qo)
	} else {
		res, err = s.topo.c.SearchOverlayWith(ctx, terms, ov, qo)
	}
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Result: res, Gen: s.gen}, nil
}

// shardOverlays is the per-query cluster.Overlay: one exec overlay per
// shard, sharing the query's global document frequencies and scorer.
type shardOverlays []*exec.Overlay

func (o shardOverlays) Shard(s int) *exec.Overlay { return o[s] }

// overlayFor resolves the query's global live document frequencies —
// df(t) = Σ over shards of (shard main df − shadowed + shard delta df),
// the running analogue of the GlobalN stamp — and builds each shard's
// overlay around them. Shards with pending mutations get the full delta
// overlay; quiet shards get a scorer-only overlay, because their stamped
// GlobalN/NumDocs go stale the moment any other shard mutates.
func (c *Cluster) overlayFor(s *clusterSnap, terms []string) cluster.Overlay {
	df := make(map[string]int, len(terms))
	for _, t := range terms {
		total := 0
		for i := range s.views {
			mainN := 0
			if pl, ok := s.mains[i].Lookup(t); ok {
				mainN = pl.N
			}
			if s.views[i].Empty() {
				total += mainN
			} else {
				n, _ := s.views[i].liveDF(t, mainN, s.mains[i])
				total += n
			}
		}
		df[t] = total
	}
	sc := statScorer(s.numDocs, s.avgDocLen(), c.bm25)
	ovs := make(shardOverlays, len(s.views))
	for i := range s.views {
		if s.views[i].Empty() {
			ovs[i] = &exec.Overlay{Scorer: &shardScorer{main: s.mains[i], scorer: sc, df: df}}
		} else {
			ovs[i] = newOverlay(s.views[i], s.mains[i], sc, df)
		}
	}
	return ovs
}

// shardScorer scores a quiet shard's candidates with rank.Scorer's exact
// float discipline but global *live* statistics: the snapshot's scorer
// (live NumDocs/AvgDocLen) and the query's resolved global document
// frequencies in place of the stamped-at-build GlobalN.
type shardScorer struct {
	main   *index.Index
	scorer *rank.Scorer
	df     map[string]int
}

func (s *shardScorer) ScoreCandidates(lists []*index.PostingList, candidates []uint32) ([]kernels.ScoredDoc, hwmodel.CPUWork) {
	var work hwmodel.CPUWork
	out := make([]kernels.ScoredDoc, len(candidates))
	for i, d := range candidates {
		var score float64
		for _, pl := range lists {
			tf, _, ok := pl.FreqForDoc(d)
			if ok {
				score += s.scorer.ScoreTerm(s.df[pl.Term], tf, s.main.DocLen(d))
			}
		}
		work.ScoredDocs += int64(len(lists))
		out[i] = kernels.ScoredDoc{DocID: d, Score: float32(score)}
	}
	return out, work
}

// MergeShard folds shard s's delta into a freshly re-encoded shard
// segment and swaps it into every replica atomically. Aborted merges
// (injected faults) leave the published state untouched and retry up to
// the configured budget.
func (c *Cluster) MergeShard(s int) error { return c.mergeShard(s, 0, false) }

// MergeShardAt is MergeShard anchored at an explicit simulated arrival
// on the shard's device timeline.
func (c *Cluster) MergeShardAt(s int, arrival time.Duration) error {
	return c.mergeShard(s, arrival, true)
}

func (c *Cluster) mergeShard(s int, arrival time.Duration, timed bool) error {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	if c.closing.Load() {
		return ErrClosed
	}
	attempts := c.retries + 1
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		err = c.mergeShardOnce(s, arrival, timed)
		if err == nil {
			return nil
		}
		if !injected(err) {
			return err
		}
		c.statsMu.Lock()
		c.st.Aborts++
		c.statsMu.Unlock()
	}
	return err
}

func (c *Cluster) mergeShardOnce(s int, arrival time.Duration, timed bool) error {
	c.mu.Lock()
	t := c.t
	if s < 0 || s >= t.n {
		c.mu.Unlock()
		return fmt.Errorf("ingest: merge shard %d of %d", s, t.n)
	}
	sh := t.shards[s]
	v := sh.d.freeze()
	main := sh.ix
	c.mu.Unlock()
	if v.Empty() {
		return nil
	}
	upto := v.gen

	var stall time.Duration
	if inj := c.cfg.Cluster.Fault; inj != nil {
		stl, err := inj.AdmitQuery(fmt.Sprintf("%s.s%d.merge", c.site, s), arrival)
		if err != nil {
			return err
		}
		stall = stl
	}

	plan, err := planMerge(main, v)
	if err != nil {
		return err
	}

	// Price the re-encode on the shard's replica-0 node — the same
	// copy/compute lanes that replica's queries use, so merge/query
	// interference is visible both ways and device faults abort the
	// merge through the ordinary submit hooks.
	var devTime, cpuTime time.Duration
	if node := t.c.ShardNode(s); node != nil && len(plan.changed) > 0 {
		var h *gpu.QueryStream
		if timed {
			h = node.AdmitAtOn(0, arrival)
		} else {
			h = node.AdmitOn(0)
		}
		gm := node.Model()
		for _, ch := range plan.changed {
			if err := priceChanged(h, &c.cpu, gm, ch); err != nil {
				h.Release()
				return err
			}
		}
		devTime = h.Stream().Elapsed()
		h.Release()
	}
	for _, ch := range plan.changed {
		cpuTime += c.cpu.Time(hwmodel.CPUWork{
			EFDecodedElems: int64(ch.merged),
			MergedElements: int64(ch.oldN + ch.merged),
		})
	}

	ix2, err := plan.build(c.codec)
	if err != nil {
		return fmt.Errorf("ingest: shard %d merge build: %w", s, err)
	}

	// Commit: drain in-flight queries at the gate, stamp the segment
	// with the current global statistics (best effort — overlays carry
	// the exact live values while the cluster is dirty), swap it into
	// every replica, drop the covered records, publish.
	c.gate.Lock()
	c.mu.Lock()
	if c.t != t {
		// A rebuild superseded this topology; its shards already hold
		// every record the merge covered.
		c.mu.Unlock()
		c.gate.Unlock()
		return nil
	}
	ix2.NumDocs = c.numDocs
	lens := make([]uint32, c.numDocs)
	copy(lens, c.liveLens[:min(len(c.liveLens), c.numDocs)])
	ix2.DocLens = lens
	if c.lenCnt > 0 {
		ix2.AvgDocLen = float64(c.lenSum) / float64(c.lenCnt)
	} else {
		ix2.AvgDocLen = 0
	}
	if err := t.c.ReplaceShard(s, ix2); err != nil {
		c.mu.Unlock()
		c.gate.Unlock()
		return err
	}
	sh.d.drop(upto)
	sh.ix = ix2
	c.exact = false
	c.publishLocked()
	c.mu.Unlock()
	c.gate.Unlock()

	c.statsMu.Lock()
	c.st.Merges++
	c.st.MergedDocs += int64(v.Docs())
	c.st.MergeDevice += devTime
	c.st.MergeCPU += cpuTime
	c.st.MergeStall += stall
	c.statsMu.Unlock()
	return nil
}

// Quiesce rebuilds the cluster over the live corpus at the current shard
// count: every delta folds into freshly partitioned shard segments with
// exact global stamps, so subsequent queries take the pure frozen-corpus
// path — byte-identical to a cluster freshly built over the same logical
// corpus.
func (c *Cluster) Quiesce() error { return c.rebuild(0) }

// Split rebuilds into one more shard than the current topology — the
// explicit form of the watermark-triggered split.
func (c *Cluster) Split() error {
	c.mu.Lock()
	n := c.t.n + 1
	c.mu.Unlock()
	return c.rebuild(n)
}

// rebuild re-partitions the live corpus into n shards (0 = keep the
// current count) and swaps the whole topology: a new serving cluster
// with fresh deltas, routing (ShardOf over n) updated for queries and
// mutations alike. Writes block for the duration; reads keep serving the
// pinned snapshot until the commit gate swaps them to the new topology.
func (c *Cluster) rebuild(n int) error {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	if c.closing.Load() {
		return ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	grow := n > t.n
	if n <= 0 {
		n = t.n
	}

	global, err := c.globalBuild(c.captureLocked(t))
	if err != nil {
		return err
	}
	t2, err := c.newTopo(global, n)
	if err != nil {
		return err
	}
	// Grow the WAL before the routing swap: the manifest commits the new
	// shard count first, so a crash between the two recovers with every
	// already-written record still reachable (grow-only, nil-safe).
	if err := c.store.Reshard(n); err != nil {
		t2.c.Close()
		return err
	}

	c.gate.Lock()
	c.t = t2
	c.exact = true
	c.publishLocked()
	c.gate.Unlock()
	t.c.Close() // no queries in flight past the gate: retire the old engines

	c.statsMu.Lock()
	c.st.Rebuilds++
	if grow {
		c.st.Splits++
	}
	c.statsMu.Unlock()
	return nil
}

// globalInput is what a whole-corpus build reads: each shard's main
// segment with a frozen view of its delta, and the live document-length
// table. Views and segments are immutable and liveLens is a copy, so the
// build itself runs without the writer lock.
type globalInput struct {
	mains    []*index.Index
	views    []*View
	liveLens []uint32
}

// captureLocked snapshots the build input of topology t. Caller holds
// c.mu.
func (c *Cluster) captureLocked(t *topo) globalInput {
	in := globalInput{
		mains:    make([]*index.Index, t.n),
		views:    make([]*View, t.n),
		liveLens: append([]uint32(nil), c.liveLens[:min(len(c.liveLens), c.numDocs)]...),
	}
	for s, sh := range t.shards {
		in.mains[s] = sh.ix
		in.views[s] = sh.d.freeze()
	}
	return in
}

// globalBuild folds every shard's (shadow-filtered main ∪ delta) into one
// global index over the live corpus — the exact build a fresh
// ingestion-free corpus would produce.
func (c *Cluster) globalBuild(in globalInput) (*index.Index, error) {
	type slice struct {
		ids   []uint32
		freqs []uint32
	}
	terms := make(map[string][]slice)
	for s, main := range in.mains {
		v := in.views[s]
		seen := make(map[string]bool)
		for _, term := range main.Terms() {
			pl, _ := main.Lookup(term)
			ids, freqs := mergePostings(pl, pl.DocIDs(), v, term)
			seen[term] = true
			if len(ids) > 0 {
				terms[term] = append(terms[term], slice{ids, freqs})
			}
		}
		for term := range v.postings {
			if seen[term] {
				continue
			}
			ids, freqs := mergePostings(nil, nil, v, term)
			if len(ids) > 0 {
				terms[term] = append(terms[term], slice{ids, freqs})
			}
		}
	}

	b := index.NewBuilder(c.codec)
	for term, parts := range terms {
		// Shard slices are ascending and docID-disjoint (modulo routing):
		// a k-way min-merge restores the global ascending order.
		idx := make([]int, len(parts))
		ids := make([]uint32, 0)
		freqs := make([]uint32, 0)
		for {
			best := -1
			for p := range parts {
				if idx[p] >= len(parts[p].ids) {
					continue
				}
				if best < 0 || parts[p].ids[idx[p]] < parts[best].ids[idx[best]] {
					best = p
				}
			}
			if best < 0 {
				break
			}
			ids = append(ids, parts[best].ids[idx[best]])
			freqs = append(freqs, parts[best].freqs[idx[best]])
			idx[best]++
		}
		if err := b.AddPostings(term, ids, freqs); err != nil {
			return nil, fmt.Errorf("ingest: rebuild term %q: %w", term, err)
		}
	}
	for d, l := range in.liveLens {
		if l > 0 {
			b.SetDocLen(uint32(d), l)
		}
	}
	return b.Build()
}

// NeedsMerge reports the lowest-numbered shard at (or past) the merge
// threshold, -1 when none is due.
func (c *Cluster) NeedsMerge() int {
	if c.cfg.MergeThreshold <= 0 {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for s, sh := range c.t.shards {
		if len(sh.d.docs) >= c.cfg.MergeThreshold {
			return s
		}
	}
	return -1
}

// Stats returns the cluster-ingestion telemetry.
func (c *Cluster) Stats() ClusterStats {
	c.statsMu.Lock()
	st := c.st
	c.statsMu.Unlock()
	c.mu.Lock()
	st.Gen = c.gen
	st.Shards = c.t.n
	st.LiveDocs = c.lenCnt
	st.ShardDocs = make([]int, c.t.n)
	st.ShardDelta = make([]int, c.t.n)
	for s, sh := range c.t.shards {
		st.ShardDocs[s] = sh.live
		st.ShardDelta[s] = len(sh.d.docs)
		st.DeltaDocs += len(sh.d.docs)
		for _, rec := range sh.d.docs {
			if rec.deleted {
				st.Tombstones++
			}
		}
	}
	c.mu.Unlock()
	if c.store != nil {
		w := c.store.Stats()
		st.WAL = &w
	}
	return st
}
