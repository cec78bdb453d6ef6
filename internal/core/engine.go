// Package core is the Griffin engine: the end-to-end conjunctive query
// pipeline of §2.1 — posting-list lookup, SvS-ordered pairwise
// intersections, BM25 scoring, top-k selection — executed under one of
// three placements:
//
//   - CPUOnly: the highly optimized CPU baseline (§2.2), using block-wise
//     merge or skip-pointer binary search per pair;
//   - GPUOnly: Griffin-GPU (§3.1), running decompression (Para-EF) and
//     intersection (MergePath or parallel binary search over skip
//     pointers) on the simulated device;
//   - Hybrid: Griffin proper (§3.2), scheduling each intersection to GPU
//     or CPU by the length-ratio policy and migrating intermediate results
//     from device to host when the query's characteristics shift.
//
// Per-query latency is simulated: CPU operations report work counts priced
// by hwmodel.CPUModel, device operations accumulate on a gpu.Stream; the
// two interleave on a single sequential timeline, matching how the paper's
// prototype executes one query.
package core

import (
	"context"
	"fmt"
	"time"

	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/sched"
)

// Mode selects the execution placement.
type Mode int

const (
	// CPUOnly runs every stage on the host.
	CPUOnly Mode = iota
	// GPUOnly runs decompression and intersection on the device
	// (Griffin-GPU standalone).
	GPUOnly
	// Hybrid is Griffin: dynamic per-operation scheduling with mid-query
	// migration (the paper's Figure 1(d)).
	Hybrid
	// PerQueryHybrid is the static hybrid baseline of Figure 1(c) (Ding
	// et al., WWW'09): the scheduler places the *whole* query on one
	// processor — decided once from the two shortest lists' length ratio —
	// and never revisits the choice as the query's characteristics change.
	// The paper's §5 argues this is exactly what Griffin improves on.
	PerQueryHybrid
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CPUOnly:
		return "cpu-only"
	case GPUOnly:
		return "gpu-only"
	case PerQueryHybrid:
		return "per-query-hybrid"
	default:
		return "griffin"
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Mode is the placement strategy.
	Mode Mode
	// Policy schedules Hybrid-mode intersections; nil means the paper's
	// RatioPolicy (crossover 128, sticky migration).
	Policy sched.Policy
	// GPUCrossover is GPU-only mode's internal switch between MergePath
	// and skip-pointer binary search (0 = 128; §3.1.2's "configurable
	// parameter").
	GPUCrossover float64
	// CPUSkipThreshold is the CPU-side merge-vs-binary ratio switch
	// (0 = intersect.DefaultSkipThreshold).
	CPUSkipThreshold int
	// TopK is the result count (0 = 10).
	TopK int
	// CPU prices host work; the zero value means hwmodel.DefaultCPU().
	CPU hwmodel.CPUModel
	// Device is the simulated GPU; required unless Mode == CPUOnly. On a
	// multi-device node (Devices > 1) it is device 0 and the template the
	// siblings are cloned from.
	Device *gpu.Device
	// Devices is the node's simulated GPU count (0 or 1 = a single
	// device, byte-identical to the pre-node engine). Devices 1..N-1 are
	// clones of Device with private memory and independent timelines;
	// each query is placed on one of them by Placement before admission.
	Devices int
	// Placement picks the device for each query when Devices > 1; nil
	// means sched.AffinityDevices (backlog minus resident-list savings).
	// Ignored on single-device nodes, where every query runs on device 0
	// without consulting any policy.
	Placement sched.DevicePlacement
	// Runtime shares the device among engines; nil means the engine
	// builds its own runtime over Device. All queries of an engine —
	// Search, SearchBatch, warmup — go through the node's runtimes, so
	// concurrent queries contend for the modeled devices and are charged
	// queueing delay (Stats.GPUWait) when they are busy. A caller-built
	// Runtime becomes the node's only device (Devices is ignored).
	Runtime *gpu.DeviceRuntime
	// Node adopts an existing multi-device runtime wholesale: the new
	// engine shares the node's per-device timelines, submit hooks, and
	// batching stage instead of building its own. This is how a live
	// index swap (background merge publishing a re-encoded segment)
	// replaces the engine without resetting device state: in-flight
	// queries on the old engine and new queries on its successor contend
	// for the same modeled devices. Device, Devices, Streams, and
	// Placement's node-construction role are ignored when set; takes
	// precedence over Runtime.
	Node *gpu.NodeRuntime
	// Streams bounds each device runtime's simulated compute lanes when
	// the engine builds its own node (0 = 1, the K20's single compute
	// engine). Ignored when Runtime is set.
	Streams int
	// SpillBacklog enables load-aware admission: when > 0, the engine
	// wraps its scheduling policy so intersections spill to the CPU plan
	// whenever the device runtime's compute backlog exceeds this
	// threshold — loadsim.RunAdaptive's behaviour promoted into the real
	// engine (§3.2's load-balancing hook). Zero disables spilling.
	SpillBacklog time.Duration
	// BatchWindow enables the device runtimes' cross-query batching stage:
	// compatible device ops (same engine class and batch key) from
	// concurrently admitted queries whose submissions fall within this
	// window of each other coalesce into one batched launch, paying the
	// fixed launch/DMA/alloc costs once plus a per-member marginal cost
	// (hwmodel.GPUModel.BatchMemberOverhead). Per-query results are
	// byte-identical to unbatched execution — batching moves simulated
	// time, never bytes. Zero disables batching (the pre-batching
	// submission path, timelines bit for bit); negative is a config error.
	BatchWindow time.Duration
	// BatchMax closes a batch when it reaches this many member ops
	// (flush-on-size); 0 means gpu.DefaultBatchMax. Meaningful only with
	// BatchWindow > 0; negative is a config error.
	BatchMax int
	// BM25 are the scoring parameters; the zero value means defaults.
	BM25 rank.BM25Params
	// CacheLists keeps compressed posting lists resident in device memory
	// (bounded LRU), eliminating repeat PCIe uploads for hot terms — the
	// scalable middle ground between Griffin's upload-per-query prototype
	// and Ao et al.'s cache-everything design the paper's §5 discusses.
	CacheLists bool
	// CacheBytes bounds the device cache (0 = 4 GB, leaving headroom of
	// the K20's 5 GB for working buffers).
	CacheBytes int64
	// NoCPUFallback disables the engine's degradation path: by default a
	// query whose device plan dies on an injected device fault
	// (fault.DeviceFault — not ordinary resource errors like OOM) is
	// transparently re-run on the CPU-only plan, returning correct
	// results with the wasted device time charged to its stats. The
	// paper's CPU/GPU symmetry is what makes this sound: both processors
	// are full-fidelity executors of the same query work.
	NoCPUFallback bool
}

// Engine executes queries against one index.
type Engine struct {
	ix     *index.Index
	cfg    Config
	scorer *rank.Scorer
	// caches holds one device-resident list cache per node device (nil
	// without CacheLists); node is the engine's multi-device runtime (nil
	// for CPU-only engines) and placement its per-query device chooser.
	caches    []*listCache
	node      *gpu.NodeRuntime
	placement sched.DevicePlacement
}

// New builds an engine, validating that GPU modes have a device.
func New(ix *index.Index, cfg Config) (*Engine, error) {
	if cfg.Node != nil && cfg.Device == nil {
		// Adopting a node: device 0's simulated GPU is the engine's
		// device, exactly as NewNode would have arranged it.
		cfg.Device = cfg.Node.Runtime(0).Device()
	}
	if cfg.Mode != CPUOnly && cfg.Device == nil {
		return nil, fmt.Errorf("core: mode %v requires a device", cfg.Mode)
	}
	if cfg.BatchWindow < 0 {
		return nil, fmt.Errorf("core: negative BatchWindow %v", cfg.BatchWindow)
	}
	if cfg.BatchMax < 0 {
		return nil, fmt.Errorf("core: negative BatchMax %d", cfg.BatchMax)
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.CPU == (hwmodel.CPUModel{}) {
		cfg.CPU = hwmodel.DefaultCPU()
	}
	if cfg.BM25 == (rank.BM25Params{}) {
		cfg.BM25 = rank.DefaultBM25()
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.NewRatioPolicy()
	}
	if cfg.GPUCrossover <= 0 {
		cfg.GPUCrossover = sched.DefaultCrossover
	}
	if cfg.CPUSkipThreshold <= 0 {
		cfg.CPUSkipThreshold = intersect.DefaultSkipThreshold
	}
	e := &Engine{ix: ix, cfg: cfg, scorer: rank.NewScorer(ix, cfg.BM25)}
	if cfg.Device != nil {
		adopted := cfg.Node != nil
		switch {
		case adopted:
			e.node = cfg.Node
		case cfg.Runtime != nil:
			e.node = gpu.WrapNode(cfg.Runtime)
		default:
			e.node = gpu.NewNode(cfg.Device, cfg.Devices, cfg.Streams)
		}
		e.placement = cfg.Placement
		if e.placement == nil {
			e.placement = sched.AffinityDevices{}
		}
		// An adopted node keeps whatever batching stage it already runs;
		// re-enabling would reset its telemetry mid-serve.
		if cfg.BatchWindow > 0 && !adopted {
			e.node.EnableBatching(gpu.BatchConfig{Window: cfg.BatchWindow, Max: cfg.BatchMax})
		}
	}
	if cfg.CacheLists {
		if cfg.CacheBytes <= 0 {
			cfg.CacheBytes = 4 << 30
		}
		e.cfg.CacheBytes = cfg.CacheBytes
		devices := 1
		if e.node != nil {
			devices = e.node.Devices()
		}
		e.caches = make([]*listCache, devices)
		for i := range e.caches {
			e.caches[i] = newListCache(cfg.CacheBytes)
		}
	}
	return e, nil
}

// Close releases any device memory the engine holds (the list caches).
// Engines without caching need no cleanup.
func (e *Engine) Close() {
	for _, c := range e.caches {
		c.drop()
	}
}

// CachedLists returns the number of device-resident cached lists, summed
// across the node's devices.
func (e *Engine) CachedLists() int {
	n := 0
	for _, c := range e.caches {
		n += c.len()
	}
	return n
}

// CacheStats returns the list caches' telemetry counters aggregated
// across the node's devices (zero value for engines without CacheLists).
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	for _, c := range e.caches {
		st.Add(c.stats())
	}
	return st
}

// DeviceCacheStats returns per-device cache telemetry in device order
// (nil without CacheLists) — the /statz view that shows how residency and
// peer copies distribute across a node's GPUs.
func (e *Engine) DeviceCacheStats() []CacheStats {
	if e.caches == nil {
		return nil
	}
	out := make([]CacheStats, len(e.caches))
	for i, c := range e.caches {
		out[i] = c.stats()
	}
	return out
}

// Warmup preloads the given terms' compressed posting lists into the
// device caches (no-op without CacheLists), so a service can pay the
// PCIe uploads for its hottest terms before taking traffic. On a
// multi-device node the terms are striped round-robin across the
// devices — term i warms device i mod N — seeding the residency the
// affinity placement then routes queries toward. It returns the number
// of lists now resident and the simulated upload time (the slowest
// device's, since the devices' copy engines upload concurrently).
// Warmup is admitted into the shared device runtimes like any query, so
// warming a live engine contends with (and delays) in-flight traffic on
// the copy engines, exactly as real PCIe preloading would.
func (e *Engine) Warmup(terms []string) (int, time.Duration, error) {
	if e.caches == nil || e.node == nil {
		return 0, 0, nil
	}
	devices := e.node.Devices()
	handles := make([]*gpu.QueryStream, devices)
	handles[0] = e.node.AdmitOn(0) // sibling handles are admitted on first use
	defer func() {
		for _, h := range handles {
			if h != nil {
				h.Release()
			}
		}
	}()
	elapsed := func() time.Duration {
		var max time.Duration
		for _, h := range handles {
			if h != nil && h.Stream().Elapsed() > max {
				max = h.Stream().Elapsed()
			}
		}
		return max
	}
	loaded := 0
	for i, term := range terms {
		d := i % devices
		pl, ok := e.ix.Lookup(term)
		if !ok {
			continue
		}
		if _, release, ok := e.caches[d].get(pl.Term); ok {
			release()
			loaded++
			continue
		}
		if handles[d] == nil {
			handles[d] = e.node.AdmitOn(d)
		}
		var comp *gpu.Buffer
		err := handles[d].Submit(gpu.CopyEngine, func(s *gpu.Stream) error {
			c, err := kernels.UploadEF(s, pl.EF)
			comp = c
			return err
		})
		if err != nil {
			return loaded, elapsed(), err
		}
		if release, ok := e.caches[d].put(pl.Term, comp); ok {
			release()
			loaded++
		} else {
			comp.Free()
		}
	}
	return loaded, elapsed(), nil
}

// Index returns the engine's index.
func (e *Engine) Index() *index.Index { return e.ix }

// Mode returns the engine's placement mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// OpTrace records one intersection's placement and outcome — the
// scheduler visibility the examples and experiments inspect. It is the
// exec layer's trace type re-exported for engine callers.
type OpTrace = exec.OpTrace

// QueryStats aggregates one query's simulated execution (the exec
// layer's record, including the full physical-plan trace in Plan).
type QueryStats = exec.QueryStats

// PlanRecord is one executed operator of a query's physical plan.
type PlanRecord = exec.OpRecord

// Result is a completed query.
type Result struct {
	// Docs are the top-k results, descending by score. Non-nil whenever
	// the query executed (including empty-conjunction queries).
	Docs []kernels.ScoredDoc
	// Stats is the simulated execution record.
	Stats QueryStats
}

// Search runs one conjunctive query and returns the top-k scored docs.
// Terms missing from the index make the conjunction empty: the result is
// well-formed (non-nil empty Docs, fetch ops traced, latency set) rather
// than a zero value.
//
// Execution is plan-based: the engine's Mode selects a plan builder, and
// the exec layer's single executor walks the resulting operator pipeline
// (fetch → upload/decompress → intersect → migrate → score → top-k) on
// one shared simulated timeline. Device work goes through the engine's
// shared DeviceRuntime: a query running alone reproduces the paper's
// per-query numbers exactly, while queries overlapping in wall clock
// contend for the modeled device and pay queueing delay (Stats.GPUWait).
func (e *Engine) Search(terms []string) (*Result, error) {
	return e.SearchContext(nil, terms)
}

// SearchContext is Search with a cancellation context: ctx (when
// non-nil) is checked between plan operators, so a caller that no longer
// needs the answer — a cluster query whose hedge already won, a closed
// HTTP request — aborts the remaining work with ctx's error.
func (e *Engine) SearchContext(ctx context.Context, terms []string) (*Result, error) {
	return e.SearchOptsContext(ctx, terms, nil, SearchOptions{})
}

// SearchAt runs one query arriving at an explicit simulated time on the
// device runtime's global timeline — the load-study entry point. A
// driver generating (e.g. Poisson) arrivals calls SearchAt in arrival
// order; backlog left on the device by earlier arrivals delays this
// query even though the driver executes queries one at a time, so the
// returned latency is the arrival-to-completion sojourn time.
func (e *Engine) SearchAt(terms []string, arrival time.Duration) (*Result, error) {
	return e.SearchOptsAtContext(nil, terms, arrival, nil, SearchOptions{})
}

// placeDevice chooses the device for one query. Single-device nodes skip
// the policy entirely — every query lands on device 0, which keeps the
// devices=1 engine byte-identical to the pre-node one. At Devices > 1
// the placement policy sees each device's compute backlog plus, when the
// engine caches lists, the upload time each device's resident lists
// would save this query (the affinity signal).
func (e *Engine) placeDevice(terms []string) int {
	if e.node.Devices() == 1 {
		return 0
	}
	return e.place(terms, e.node.Backlogs(), e.batchSavings())
}

// placeDeviceAt is placeDevice for explicit-arrival admissions: the
// backlog each device shows is relative to the arrival point on the
// global timeline, so discrete-event load studies see queue skew even
// though their driver runs queries one at a time in wall clock.
func (e *Engine) placeDeviceAt(terms []string, arrival time.Duration) int {
	if e.node.Devices() == 1 {
		return 0
	}
	return e.place(terms, e.node.BacklogsAt(arrival), e.batchSavingsAt(arrival))
}

func (e *Engine) place(terms []string, backlog, batchSaving []time.Duration) int {
	info := sched.NodeInfo{Backlog: backlog, BatchSaving: batchSaving}
	if e.caches != nil {
		info.Saving = e.affinitySavings(terms)
	}
	return e.placement.Place(info)
}

// batchSavings reads the per-device batch-affinity placement signal (nil
// when the batching stage is disabled, so placement math is untouched).
func (e *Engine) batchSavings() []time.Duration {
	if e.cfg.BatchWindow <= 0 {
		return nil
	}
	return e.node.BatchSavings()
}

func (e *Engine) batchSavingsAt(arrival time.Duration) []time.Duration {
	if e.cfg.BatchWindow <= 0 {
		return nil
	}
	return e.node.BatchSavingsAt(arrival)
}

// affinitySavings estimates, per device, the transfer time the query's
// terms would not pay there because their compressed lists are already
// cache-resident. The probe reads residency without touching LRU order
// or hit/miss counters; only the chosen device's cache sees real gets.
func (e *Engine) affinitySavings(terms []string) []time.Duration {
	model := e.node.Model()
	out := make([]time.Duration, e.node.Devices())
	for _, t := range terms {
		pl, ok := e.ix.Lookup(t)
		if !ok {
			continue
		}
		bytes := pl.EF.CompressedBytes()
		for d, c := range e.caches {
			if c.contains(pl.Term) {
				out[d] += model.TransferTime(bytes)
			}
		}
	}
	return out
}

func (e *Engine) search(cancel context.Context, terms []string, h *gpu.QueryStream, ov *exec.Overlay) (*Result, error) {
	return e.searchOpts(cancel, terms, h, ov, SearchOptions{})
}

// searchOpts is search parameterized by per-query overload options: a
// top-k override and a forced CPU-only plan (brownout degradation). The
// zero SearchOptions reproduces search exactly.
func (e *Engine) searchOpts(cancel context.Context, terms []string, h *gpu.QueryStream, ov *exec.Overlay, opts SearchOptions) (*Result, error) {
	fetches := make([]exec.Fetch, len(terms))
	for i, t := range terms {
		fetches[i] = exec.Fetch{Term: t}
		if pl, ok := e.ix.Lookup(t); ok {
			fetches[i].List = pl
		}
	}
	device := e.cfg.Device
	if e.node != nil && h != nil {
		// The plan executes on the device the query was placed on: its
		// buffers live in (and its capacity checks charge) that device's
		// memory. Device 0 is cfg.Device itself, so single-device nodes
		// are unchanged.
		device = e.node.Runtime(h.Device()).Device()
	}
	topK := e.cfg.TopK
	if opts.TopK > 0 {
		topK = opts.TopK
	}
	ctx := &exec.Context{
		Ctx:           cancel,
		CPU:           e.cfg.CPU,
		Device:        device,
		Handle:        h,
		Lists:         e.listProvider(),
		Scorer:        e.scorer,
		SkipThreshold: e.cfg.CPUSkipThreshold,
		TopK:          topK,
	}
	if ov != nil {
		ctx.Delta = ov.Delta
		if ov.Scorer != nil {
			ctx.Scorer = ov.Scorer
		}
	}
	builder := e.planBuilder(e.queryPolicy(h))
	if opts.ForceCPU {
		// Brownout degradation: the hybrid symmetry that backs fault
		// fallback also backs load shedding — the CPU plan computes the
		// same answer without touching the contended device timeline.
		builder = func(ordered []*index.PostingList) exec.Builder {
			return exec.NewCPUBuilder(ordered)
		}
	}
	out, err := exec.Run(ctx, fetches, builder)
	if err != nil {
		if fault.IsDeviceFault(err) && !e.cfg.NoCPUFallback && e.cfg.Mode != CPUOnly && !opts.ForceCPU {
			return e.fallbackCPU(cancel, fetches, h, ov, err, topK)
		}
		return nil, err
	}
	return &Result{Docs: out.Docs, Stats: out.Stats}, nil
}

// fallbackCPU re-runs a query whose device plan died on an injected
// fault, using the CPU-only plan — the paper's hybrid symmetry made
// load-bearing: the CPU executes the exact same query work, so the
// fallback's results match the CPU-only golden bit for bit. The
// simulated device time the aborted plan had accumulated (service time
// plus queueing delay) is charged to the fallback's stats as
// FaultWasted/GPUTime: the failed attempt happened on the timeline even
// though its results were discarded.
func (e *Engine) fallbackCPU(cancel context.Context, fetches []exec.Fetch, h *gpu.QueryStream, ov *exec.Overlay, cause error, topK int) (*Result, error) {
	var wasted time.Duration
	if h != nil {
		wasted = h.Stream().Elapsed()
	}
	ctx := &exec.Context{
		Ctx:           cancel,
		CPU:           e.cfg.CPU,
		Scorer:        e.scorer,
		SkipThreshold: e.cfg.CPUSkipThreshold,
		TopK:          topK,
	}
	if ov != nil {
		// The fallback re-plans on the CPU but keeps the query's pinned
		// snapshot: same delta view, same statistics, same results.
		ctx.Delta = ov.Delta
		if ov.Scorer != nil {
			ctx.Scorer = ov.Scorer
		}
	}
	out, err := exec.Run(ctx, fetches, func(ordered []*index.PostingList) exec.Builder {
		return exec.NewCPUBuilder(ordered)
	})
	if err != nil {
		return nil, err
	}
	out.Stats.FallbackCPU = true
	out.Stats.Fault = cause.Error()
	out.Stats.FaultWasted = wasted
	out.Stats.GPUTime += wasted
	out.Stats.Latency = out.Stats.CPUTime + out.Stats.GPUTime
	if h != nil {
		out.Stats.GPUWait = h.Waited()
	}
	return &Result{Docs: out.Docs, Stats: out.Stats}, nil
}

// queryPolicy returns the scheduling policy for one query: the
// configured policy, wrapped with the load-aware spill when the engine
// has SpillBacklog set — the wrapper reads this query's view of the
// device backlog (its runtime handle) before every placement decision.
func (e *Engine) queryPolicy(h *gpu.QueryStream) sched.Policy {
	p := e.cfg.Policy
	if e.cfg.SpillBacklog > 0 && h != nil {
		p = &sched.LoadAwarePolicy{Inner: p, Backlog: h, Threshold: e.cfg.SpillBacklog}
	}
	return p
}

// planBuilder maps the engine's Mode to its plan builder — the only
// thing the four execution modes differ in.
func (e *Engine) planBuilder(policy sched.Policy) func(ordered []*index.PostingList) exec.Builder {
	return func(ordered []*index.PostingList) exec.Builder {
		switch e.cfg.Mode {
		case CPUOnly:
			return exec.NewCPUBuilder(ordered)
		case GPUOnly:
			return exec.NewGPUBuilder(ordered, e.cfg.GPUCrossover)
		case PerQueryHybrid:
			return exec.NewPerQueryBuilder(ordered, policy, e.cfg.GPUCrossover)
		default:
			return exec.NewHybridBuilder(ordered, policy, e.cfg.GPUCrossover)
		}
	}
}

// Runtime returns device 0's runtime (nil for CPU-only engines) — the
// single-device telemetry surface, preserved for callers that predate
// multi-device nodes; Node is the full per-device view.
func (e *Engine) Runtime() *gpu.DeviceRuntime {
	if e.node == nil {
		return nil
	}
	return e.node.Runtime(0)
}

// Node returns the engine's multi-device runtime (nil for CPU-only
// engines) — per-device backlog, utilization, and admission telemetry.
func (e *Engine) Node() *gpu.NodeRuntime { return e.node }

// Batching returns the engine's cross-query batching configuration and
// whether the stage is enabled (always false for CPU-only engines, whose
// plans place no device work).
func (e *Engine) Batching() (gpu.BatchConfig, bool) {
	if e.node == nil || e.cfg.BatchWindow <= 0 {
		return gpu.BatchConfig{}, false
	}
	max := e.cfg.BatchMax
	if max <= 0 {
		max = gpu.DefaultBatchMax
	}
	return gpu.BatchConfig{Window: e.cfg.BatchWindow, Max: max}, true
}

// BatchStats aggregates the node's cross-query batching telemetry across
// devices (zero value when the stage is disabled).
func (e *Engine) BatchStats() gpu.BatchStats {
	if e.node == nil {
		return gpu.BatchStats{}
	}
	return e.node.BatchStats()
}

// DeviceBatchStats returns per-device batching telemetry in device order
// (nil for CPU-only engines).
func (e *Engine) DeviceBatchStats() []gpu.BatchStats {
	if e.node == nil {
		return nil
	}
	return e.node.DeviceBatchStats()
}

// Devices returns the node's device count (1 for CPU-only engines, whose
// plans place no device work).
func (e *Engine) Devices() int {
	if e.node == nil {
		return 1
	}
	return e.node.Devices()
}

// listProvider exposes the engine's resident-list caches to cacheable
// Upload operators; without caching, uploads go straight over PCIe.
func (e *Engine) listProvider() exec.ListProvider {
	if e.caches == nil {
		return nil
	}
	return cacheProvider{caches: e.caches, model: e.node.Model()}
}

// cacheProvider adapts the per-device listCaches to the executor's
// ListProvider: local cache hits skip the transfer entirely; local
// misses whose list is resident on a sibling device take the priced
// choice between a peer copy over the inter-device interconnect and a
// host PCIe re-upload (the cheaper wins — a decision, not a free move);
// successful puts hand ownership to the cache (the executor only drops
// the reference), and full-cache misses leave the buffer executor-owned.
type cacheProvider struct {
	caches []*listCache
	model  *hwmodel.GPUModel
}

func (p cacheProvider) DeviceCompressed(s *gpu.Stream, dev int, pl *index.PostingList) (exec.DeviceList, error) {
	local := p.caches[dev]
	if buf, release, ok := local.get(pl.Term); ok {
		return exec.DeviceList{Buf: buf, Release: release}, nil // already resident: no transfer
	}
	if comp, ok, err := p.peerCopy(s, dev, pl.Term); ok || err != nil {
		if err != nil {
			return exec.DeviceList{}, err
		}
		local.notePeerCopy()
		if release, ok := local.put(pl.Term, comp); ok {
			return exec.DeviceList{Buf: comp, Release: release, Peer: true}, nil
		}
		return exec.DeviceList{Buf: comp, Peer: true}, nil
	}
	comp, err := kernels.UploadEF(s, pl.EF)
	if err != nil {
		return exec.DeviceList{}, err
	}
	if release, ok := local.put(pl.Term, comp); ok {
		return exec.DeviceList{Buf: comp, Release: release, Uploaded: true}, nil
	}
	return exec.DeviceList{Buf: comp, Uploaded: true}, nil
}

// peerCopy scans the sibling devices' caches for term and, when found
// and the interconnect beats the host path for that size, copies the
// compressed list device-to-device onto s. ok is false when the list is
// resident nowhere (or re-uploading is cheaper), sending the caller to
// the host PCIe path.
func (p cacheProvider) peerCopy(s *gpu.Stream, dev int, term string) (*gpu.Buffer, bool, error) {
	for d, c := range p.caches {
		if d == dev || !c.contains(term) {
			continue
		}
		src, release, ok := c.get(term)
		if !ok {
			continue // evicted between the probe and the get
		}
		if p.model.PeerTransferTime(src.Bytes) >= p.model.TransferTime(src.Bytes) {
			release()
			return nil, false, nil
		}
		comp, err := s.PeerIn(src.Data, src.Bytes)
		release()
		if err != nil {
			return nil, false, err
		}
		return comp, true, nil
	}
	return nil, false, nil
}
