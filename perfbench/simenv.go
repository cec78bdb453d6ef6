package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/overload"
	"griffin/internal/workload"
)

const (
	// logLen is the query-log length of the simulated-clock workloads,
	// far more reads than a timed phase of a minute completes.
	logLen = 20000
	// simMaxList is the longest posting list of the simulated-clock
	// workloads' corpus: the scale-0.05 experiments corpus
	// (experiments.Config.BuildCorpus: 2M documents, 50 terms, Zipf 0.85)
	// with its longest list halved from 1M postings. Reads cost about a
	// third as much host time, so a run holds about three times as many
	// and read_p99_ms rests on about three times as many reads beyond it;
	// with the full lists it spread up to 0.26 between ten seeds.
	simMaxList = 500_000
	// paperRate is paper-log's Poisson arrival rate on the simulated
	// clock, about a quarter of the single K20 engine's drain rate
	// (sim_qps, about 4900 reads/s).
	paperRate = 1200.0
	// shardedRate is sharded-hot's arrival rate, about 30% of the batched
	// 4-shard cluster's drain rate (about 11,800 reads/s).
	shardedRate = 3700.0
	// shardedAlpha skews sharded-hot's log toward popular terms so hot
	// lists repeat (the Fig-11 log uses 0.45).
	shardedAlpha = 0.8
	// readLimit is the host latency a simulated-clock read must meet to
	// count as goodput; about one read in fifteen misses it.
	readLimit = 15 * time.Millisecond
	// stopwordRanks keeps the two most frequent terms out of the query
	// logs: they occur in a quarter and a seventh of all documents, far
	// more than any other, which is what stopword removal drops (the
	// Fig-11 rule of the top 0.5% of ranks rounds to none of 50 terms).
	stopwordRanks = 2
	// topK is the result count of every workload.
	topK = 10
	// burstReads is how many reads the drain measurement behind sim_qps
	// sends at once.
	burstReads = 128
)

// readRec is one read's outcome and the records the checks and the
// layer replay need.
type readRec struct {
	terms   []string
	arrival time.Duration
	host    time.Duration
	docs    []kernels.ScoredDoc
	eng     *core.Result    // engine reads
	cl      *cluster.Result // cluster reads
}

// degraded reports a cluster read that some shard did not answer (shed,
// refused by the device deadline budget or past its sub-deadline): its
// answer lacks that shard's documents, so it counts as failed and is
// neither compared with the oracle nor replayed.
func (r *readRec) degraded() bool { return r.cl != nil && r.cl.Stats.Degraded }

// candidates is the number of documents that matched every term.
func (r *readRec) candidates() int {
	if r.eng != nil {
		return r.eng.Stats.Candidates
	}
	n := 0
	for _, ss := range r.cl.Stats.Shards {
		n += ss.Query.Candidates
	}
	return n
}

func (r *readRec) sim() simRecord {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range r.docs {
		v := uint64(d.DocID)<<32 | uint64(math.Float32bits(d.Score))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	s := simRecord{Docs: h.Sum64()}
	if r.eng != nil {
		st := r.eng.Stats
		s.Latency, s.CPU, s.GPU, s.Wait = st.Latency, st.CPUTime, st.GPUTime, st.GPUWait
	} else {
		s.Latency, s.CPU = r.cl.Stats.Latency, r.cl.Stats.MaxShard
		for _, ss := range r.cl.Stats.Shards {
			s.GPU += ss.Query.GPUTime
			s.Wait += ss.Query.GPUWait
		}
	}
	return s
}

// searcher is the system a simulated-clock workload drives.
type searcher interface {
	search(terms []string, arrival time.Duration) (readRec, error)
	close()
}

type engineSearcher struct{ e *core.Engine }

func (s engineSearcher) search(terms []string, arrival time.Duration) (readRec, error) {
	r, err := s.e.SearchAt(terms, arrival)
	if err != nil {
		return readRec{}, err
	}
	return readRec{docs: r.Docs, eng: r}, nil
}

func (s engineSearcher) close() { s.e.Close() }

type clusterSearcher struct{ c *cluster.Cluster }

func (s clusterSearcher) search(terms []string, arrival time.Duration) (readRec, error) {
	r, err := s.c.SearchAtWith(context.Background(), terms, arrival, cluster.QueryOpts{})
	if err != nil {
		return readRec{}, err
	}
	return readRec{docs: r.Docs, cl: r}, nil
}

func (s clusterSearcher) close() { s.c.Close() }

// simEnv is a workload whose reads arrive at seeded Poisson times on the
// simulated clock and are issued by one goroutine in arrival order — a
// closed loop on the host clock.
type simEnv struct {
	corpus   *workload.Corpus
	queries  [][]string
	arrivals []time.Duration
	// orc answers every read independently of the engine.
	orc *oracle
	// build makes a fresh system; admission turns on the workload's
	// overload control, which the drain measurement leaves off.
	build func(admission bool) (searcher, error)
	sys   searcher
	used  bool
	// shards are sharded-hot's shard indexes (nil on paper-log).
	shards []*index.Index
}

// newSimEnv generates the corpus simMaxList describes, a Fig-11 query
// log with the given popularity skew, and Poisson arrivals at rate.
func newSimEnv(seed int64, alpha, rate float64) (*simEnv, error) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    2_000_000,
		NumTerms:   50,
		MaxListLen: simMaxList,
		MinListLen: 1_000,
		Alpha:      0.85,
		Codec:      index.CodecEF,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries:      logLen,
		PopularityAlpha: alpha,
		StopwordRanks:   stopwordRanks,
		Seed:            seed*7 + 1,
	})
	e := &simEnv{corpus: c, queries: make([][]string, len(log)), arrivals: make([]time.Duration, len(log))}
	rng := rand.New(rand.NewSource(seed*7 + 2))
	var t time.Duration
	for i, q := range log {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		e.queries[i], e.arrivals[i] = q.Terms, t
	}
	e.orc = newOracle(c.Index)
	return e, nil
}

func newDevice() *gpu.Device { return gpu.New(hwmodel.DefaultGPU(), 0) }

func setupPaperLog(seed int64, _ string) (env, error) {
	e, err := newSimEnv(seed, 0.45, paperRate)
	if err != nil {
		return nil, err
	}
	e.build = func(bool) (searcher, error) {
		eng, err := core.New(e.corpus.Index, core.Config{Mode: core.Hybrid, Device: newDevice(), TopK: topK})
		return engineSearcher{eng}, err
	}
	if e.sys, err = e.build(true); err != nil {
		return nil, err
	}
	return e, nil
}

func setupShardedHot(seed int64, _ string) (env, error) {
	e, err := newSimEnv(seed, shardedAlpha, shardedRate)
	if err != nil {
		return nil, err
	}
	if e.shards, err = workload.PartitionCorpus(e.corpus, 4); err != nil {
		return nil, err
	}
	e.build = func(admission bool) (searcher, error) {
		cfg := cluster.Config{
			Engine: core.Config{Mode: core.Hybrid, CacheLists: true, BatchWindow: 2 * time.Millisecond},
			TopK:   topK,
		}
		if admission {
			cfg.Overload = overload.Config{
				DefaultDeadline: 20 * time.Millisecond,
				ShedTarget:      5 * time.Millisecond,
			}
		}
		c, err := cluster.New(e.shards, cfg)
		return clusterSearcher{c}, err
	}
	if e.sys, err = e.build(true); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *simEnv) close() {
	if e.sys != nil {
		e.sys.close()
	}
}

func (e *simEnv) drive(d time.Duration, maxReads int, tr *tracer) (*phase, error) {
	if e.used {
		e.sys.close()
		var err error
		if e.sys, err = e.build(true); err != nil {
			return nil, err
		}
	}
	e.used = true
	ph := &phase{}
	start := time.Now()
	for i := 0; maxReads == 0 || i < maxReads; i++ {
		if maxReads == 0 && time.Since(start) >= d {
			break
		}
		if i == len(e.queries) {
			return nil, fmt.Errorf("query log of %d reads exhausted before the phase ended", len(e.queries))
		}
		var id int
		if tr != nil {
			id = tr.begin("read", "search", i, 0)
		}
		t0 := time.Now()
		rec, err := e.sys.search(e.queries[i], e.arrivals[i])
		host := time.Since(t0)
		if tr != nil {
			tr.end(id)
		}
		ph.attempted++
		if err != nil {
			if overload.IsOverload(err) || errors.Is(err, cluster.ErrAllShardsFailed) {
				ph.failed++
				continue
			}
			return nil, fmt.Errorf("read %d: %w", i, err)
		}
		rec.terms, rec.arrival, rec.host = e.queries[i], e.arrivals[i], host
		if rec.degraded() {
			ph.failed++
		} else if host <= readLimit {
			ph.good++
		}
		s := rec.sim()
		ph.readHost = append(ph.readHost, host)
		ph.sims = append(ph.sims, s)
		ph.reads = append(ph.reads, rec)
	}
	ph.wall = time.Since(start)
	return ph, nil
}

// check reconciles every read's simulated clock and compares every
// answer that is not degraded, and its candidate count, with the
// brute-force oracle.
func (e *simEnv) check(ph *phase) (int, error) { return e.checkReads(ph.reads) }

func (e *simEnv) checkReads(reads []readRec) (int, error) {
	queries := make([][]string, len(reads))
	for i := range reads {
		r := &reads[i]
		if err := reconcile(r); err != nil {
			return 0, fmt.Errorf("reconciliation: read %d %v: %w", i, r.terms, err)
		}
		queries[i] = r.terms
	}
	want := e.orc.answers(queries, topK)
	wrong := 0
	for _, r := range reads {
		a := want[strings.Join(r.terms, " ")]
		if !r.degraded() && (!sameDocs(r.docs, a.docs) || r.candidates() != a.matches) {
			wrong++
		}
	}
	return wrong, nil
}

// simQPS is the simulated drain rate: the log's first burstReads reads
// all arrive at simulated time 0 on a freshly built system, and the rate
// is their count over the simulated makespan, the throughput the system
// sustains when saturated (experiments.RunOverloadSweep calibrates its
// saturation point the same way). Overload control stays off, so the
// burst measures draining rather than shedding. The timed phase's own
// reads over its makespan would only echo the Poisson arrival rate,
// which sits below saturation. The burst's answers are checked like the
// timed phase's.
func (e *simEnv) simQPS(*phase) (float64, int, error) {
	sys, err := e.build(false)
	if err != nil {
		return 0, 0, err
	}
	defer sys.close()
	reads := make([]readRec, burstReads)
	var makespan time.Duration
	for i := range reads {
		r, err := sys.search(e.queries[i], 0)
		if err != nil {
			return 0, 0, fmt.Errorf("burst read %d: %w", i, err)
		}
		r.terms = e.queries[i]
		reads[i] = r
		makespan = max(makespan, r.sim().Latency)
	}
	wrong, err := e.checkReads(reads)
	return float64(len(reads)) / makespan.Seconds(), wrong, err
}

// reconcile checks that a read's simulated time adds up: the plan's
// operator times sum to the latency, the processor split sums to the
// latency, and a cluster read's latency is its slowest shard plus the
// merge.
func reconcile(r *readRec) error {
	one := func(st core.QueryStats) error {
		var sum time.Duration
		for _, op := range st.Plan {
			sum += op.Took
		}
		if sum != st.Latency {
			return fmt.Errorf("plan sums to %v, latency %v", sum, st.Latency)
		}
		if st.CPUTime+st.GPUTime != st.Latency {
			return fmt.Errorf("cpu %v + gpu %v != latency %v", st.CPUTime, st.GPUTime, st.Latency)
		}
		return nil
	}
	if r.eng != nil {
		return one(r.eng.Stats)
	}
	st := r.cl.Stats
	var slowest time.Duration
	for _, ss := range st.Shards {
		if err := one(ss.Query); err != nil {
			return fmt.Errorf("shard %d: %w", ss.Shard, err)
		}
		slowest = max(slowest, ss.Query.Latency)
	}
	if st.Latency != st.MaxShard+st.MergeTime {
		return fmt.Errorf("latency %v != max shard %v + merge %v", st.Latency, st.MaxShard, st.MergeTime)
	}
	if !st.Degraded && slowest != st.MaxShard {
		return fmt.Errorf("slowest shard %v != max shard %v", slowest, st.MaxShard)
	}
	return nil
}

// layers reports the per-layer metrics of a traced simulated-clock phase.
func (e *simEnv) layers(ph *phase, tr *tracer, m metrics) error {
	acc := newLayerAcc(tr)
	if e.shards == nil {
		return e.engineLayers(ph, acc, m)
	}
	return e.clusterLayers(ph, acc, m)
}

func (e *simEnv) engineLayers(ph *phase, acc *layerAcc, m metrics) error {
	for _, r := range ph.reads {
		acc.addSim(r.eng.Stats)
		if r.eng.Stats.Migrated {
			acc.migrated++
		}
	}
	eng, err := core.New(e.corpus.Index, core.Config{Mode: core.Hybrid, Device: newDevice(), TopK: topK})
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, i := range sampleReads(len(ph.reads)) {
		r := ph.reads[i]
		root := acc.tr.begin("replay", "read", i, 0)
		_, err := acc.replayEngine(i, root, eng, r.terms, r.eng.Stats.Plan)
		acc.tr.end(root)
		if err != nil {
			return err
		}
		acc.replayed++
	}
	acc.finish(m, len(ph.reads))
	m.set("gpu.util", e.sys.(engineSearcher).e.Node().Utilization(), "ratio")
	return nil
}

func (e *simEnv) clusterLayers(ph *phase, acc *layerAcc, m metrics) error {
	var maxShard, merge time.Duration
	shed, misses := 0, 0
	for _, r := range ph.reads {
		st := r.cl.Stats
		maxShard += st.MaxShard
		merge += st.MergeTime
		migrated, anyShed, missed := false, false, st.DeadlineMiss
		for _, ss := range st.Shards {
			acc.addSim(ss.Query)
			migrated = migrated || ss.Query.Migrated
			anyShed = anyShed || ss.Shed
			missed = missed || ss.DeadlineExceeded || ss.BudgetRejected
		}
		if migrated {
			acc.migrated++
		}
		if anyShed {
			shed++
		}
		if missed {
			misses++
		}
	}
	n := float64(max(len(ph.reads), 1))
	m.set("cluster.sim_max_shard_ms", ms(maxShard)/n, "ms")
	m.set("cluster.sim_merge_ms", ms(merge)/n, "ms")
	// A read refused outright or with a shard shed counts as shed; one
	// answered past its deadline, or with a shard dropped past its
	// sub-deadline or refused by the device deadline budget, as a miss.
	m.set("overload.shed_frac", frac(shed+ph.attempted-len(ph.reads), ph.attempted), "ratio")
	m.set("overload.deadline_miss_frac", frac(misses, ph.attempted), "ratio")

	cl := e.sys.(clusterSearcher).c
	var cache core.CacheStats
	for _, t := range cl.Telemetry() {
		cache.Add(t.Cache)
	}
	m.set("core.cache_hit_frac", frac(int(cache.Hits), int(cache.Hits+cache.Misses)), "ratio")
	bs := cl.BatchStats()
	m.set("gpu.batch_members_per_batch", frac(int(bs.Members), int(bs.Batches)), "count")
	m.set("gpu.batch_saved_ms_per_read", ms(bs.Saved)/n, "ms")
	var util float64
	for s := 0; s < cl.NumShards(); s++ {
		util += cl.ShardNode(s).Utilization()
	}
	m.set("gpu.util", util/float64(cl.NumShards()), "ratio")

	// Replay sampled reads shard by shard on standalone engines over the
	// cluster's shard indexes, then merge their answers through the
	// cluster layer's MergeTopK.
	engines := make([]*core.Engine, len(e.shards))
	for s, ix := range e.shards {
		eng, err := core.New(ix, core.Config{Mode: core.Hybrid, Device: newDevice(), TopK: topK})
		if err != nil {
			return err
		}
		defer eng.Close()
		engines[s] = eng
	}
	var clusterSelf, clusterHost time.Duration
	// Only reads every shard answered have a plan for each shard.
	var whole []int
	for i := range ph.reads {
		if !ph.reads[i].degraded() {
			whole = append(whole, i)
		}
	}
	for _, j := range sampleReads(len(whole)) {
		i := whole[j]
		r := ph.reads[i]
		root := acc.tr.begin("replay", "read", i, 0)
		parts := make([][]kernels.ScoredDoc, len(engines))
		var slowest time.Duration
		for s, eng := range engines {
			before := acc.coreHost
			docs, err := acc.replayEngine(i, root, eng, r.terms, r.cl.Stats.Shards[s].Query.Plan)
			if err != nil {
				acc.tr.end(root)
				return fmt.Errorf("shard %d: %w", s, err)
			}
			parts[s] = docs
			slowest = max(slowest, acc.coreHost-before)
		}
		var merged []kernels.ScoredDoc
		acc.tr.timed("cluster", "MergeTopK", i, root, func() { merged, _ = cluster.MergeTopK(parts, topK) })
		acc.tr.end(root)
		if merged == nil {
			merged = []kernels.ScoredDoc{}
		}
		if !sameDocs(merged, r.docs) {
			return fmt.Errorf("read %d: replayed shards merge to %v, cluster answered %v", i, merged, r.docs)
		}
		clusterSelf += r.host - slowest
		clusterHost += r.host
		acc.replayed++
	}
	acc.finish(m, len(ph.reads))
	k := float64(max(acc.replayed, 1))
	m.set("cluster.self_host_ms", ms(clusterSelf)/k, "ms")
	m.set("share.cluster", float64(clusterSelf)/float64(max(clusterHost, 1)), "ratio")
	return nil
}
