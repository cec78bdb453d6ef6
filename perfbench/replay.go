package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"griffin/internal/core"
	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/sched"
)

// replaySamples is how many reads of a traced phase the layer replay
// re-executes, spread evenly over the phase.
const replaySamples = 40

// sampleReads picks up to replaySamples evenly spaced read indexes.
func sampleReads(n int) []int { return spread(n, replaySamples) }

// spread picks up to k evenly spaced indexes of n.
func spread(n, k int) []int {
	k = min(n, k)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// layerAcc accumulates the host-time replay of sampled reads and the
// simulated records of every read of a traced phase.
type layerAcc struct {
	tr *tracer

	// Host replay of the sampled reads.
	replayed      int
	coreHost      time.Duration
	coreAllocs    uint64
	coreBytes     uint64
	efHost        time.Duration
	efPostings    int
	freqHost      time.Duration
	freqCalls     int
	intersectHost time.Duration
	kernelHost    time.Duration
	launches      int64
	allocs        int
	scoreHost     time.Duration
	candidates    int
	topkHost      time.Duration

	// Simulated records of every read.
	byOp      map[string]time.Duration
	migrated  int
	estErrSum float64
	estErrN   int
	gpuWait   time.Duration
}

func newLayerAcc(tr *tracer) *layerAcc {
	return &layerAcc{tr: tr, byOp: map[string]time.Duration{}}
}

// opName names an operator by kind and processor for the exec.* metrics.
func opName(rec exec.OpRecord) string {
	where := "cpu"
	if rec.Where == sched.GPU {
		where = "gpu"
	}
	switch rec.Kind {
	case exec.OpIntersect:
		if rec.Algo == exec.AlgoCPUDecode {
			return "decompress_cpu"
		}
		return "intersect_" + where
	case exec.OpDecompress:
		return "decompress_" + where
	case exec.OpDeltaScan:
		return "delta_scan"
	}
	return rec.Kind.String()
}

// addSim folds one engine-level execution record into the simulated
// sums. A cluster read contributes one record per shard.
func (a *layerAcc) addSim(st core.QueryStats) {
	for _, rec := range st.Plan {
		a.byOp[opName(rec)] += rec.Took
		if rec.Took > 0 {
			a.estErrSum += math.Abs(float64(rec.Est-rec.Took)) / float64(rec.Took)
			a.estErrN++
		}
	}
	a.gpuWait += st.GPUWait
}

// replayEngine re-executes one read on a standalone engine, which gives
// the core layer's host cost, and then replays the plan the system
// recorded for the read operator by operator through the public
// functions of the layer each operator ran in; a nil plan replays the
// standalone engine's own. It returns an error when the replayed answer
// differs from the standalone engine's.
func (a *layerAcc) replayEngine(read, parent int, eng *core.Engine, terms []string, plan []exec.OpRecord) ([]kernels.ScoredDoc, error) {
	tr := a.tr
	ix := eng.Index()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *core.Result
	var err error
	a.coreHost += tr.timed("core", "Engine.Search", read, parent, func() { res, err = eng.Search(terms) })
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	a.coreAllocs += after.Mallocs - before.Mallocs
	a.coreBytes += after.TotalAlloc - before.TotalAlloc
	if plan == nil {
		plan = res.Stats.Plan
	}

	lists := fetched(ix, plan)
	docs, cands, err := a.replayPlan(read, parent, ix, lists, plan)
	if err != nil {
		return nil, err
	}
	if !sameDocs(docs, res.Docs) {
		return nil, fmt.Errorf("read %d: plan replay answered %v, engine %v", read, docs, res.Docs)
	}

	// Codec and index costs of the lists the read touches, measured on
	// their own: block decode per posting, and the per-candidate
	// frequency lookups scoring performs.
	var buf [index.BlockSize]uint32
	for _, pl := range lists {
		v := index.EFView{L: pl.EF}
		a.efHost += tr.timed("ef", "EFView.DecompressBlock", read, parent, func() {
			for b := 0; b < v.NumBlocks(); b++ {
				v.DecompressBlock(b, buf[:])
			}
		})
		a.efPostings += pl.N
	}
	a.freqHost += tr.timed("index", "PostingList.FreqForDoc", read, parent, func() {
		for _, d := range cands {
			for _, pl := range lists {
				pl.FreqForDoc(d)
			}
		}
	})
	a.freqCalls += len(cands) * len(lists)
	return docs, nil
}

// fetched returns the posting lists a plan's fetch operators bound, in
// fetch order, or nil when a term is missing (the conjunction is empty).
func fetched(ix *index.Index, plan []exec.OpRecord) []*index.PostingList {
	var lists []*index.PostingList
	for _, rec := range plan {
		if rec.Kind != exec.OpFetch {
			continue
		}
		pl, ok := ix.Lookup(rec.Term)
		if !ok {
			return nil
		}
		lists = append(lists, pl)
	}
	return lists
}

// devLists is one posting list's device-resident forms during a replay.
type devLists struct{ comp, dec *gpu.Buffer }

// replayPlan walks a recorded plan. CPU intersections go through
// intersect.Pair or intersect.SvS; device operators through the kernels
// package on a fresh simulated device; scoring and top-k through rank.
// The k-th intersection joins the running intermediate with the (k+1)-th
// list in SvS order, as every plan builder emits them, and each step's
// output size must match the record.
func (a *layerAcc) replayPlan(read, parent int, ix *index.Index, lists []*index.PostingList, plan []exec.OpRecord) ([]kernels.ScoredDoc, []uint32, error) {
	tr := a.tr
	execID := tr.begin("exec", "plan", read, parent)
	defer tr.end(execID)

	views := make([]index.BlockList, len(lists))
	for i, pl := range lists {
		views[i] = index.EFView{L: pl.EF}
	}
	ordered := make([]*index.PostingList, len(lists))
	for i, oi := range intersect.OrderByLength(views) {
		ordered[i] = lists[oi]
	}

	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	s := dev.NewStream()
	s.EnableProfiling()
	env := map[string]*devLists{}
	entry := func(term string) *devLists {
		if env[term] == nil {
			env[term] = &devLists{}
		}
		return env[term]
	}
	var owned []*gpu.Buffer
	defer func() {
		for _, b := range owned {
			b.Free()
		}
	}()

	var host []uint32
	var devRes *kernels.IntersectResult
	var scored, docs []kernels.ScoredDoc
	step := 0
	for _, rec := range plan {
		var err error
		switch {
		case rec.Kind == exec.OpFetch:
		case rec.Kind == exec.OpIntersect && rec.Where == sched.CPU:
			a.intersectHost += tr.timed("intersect", rec.Algo.String(), read, execID, func() {
				if rec.Algo == exec.AlgoCPUDecode {
					host = intersect.SvS([]index.BlockList{index.EFView{L: ordered[0].EF}}, 0).IDs
					return
				}
				var short index.BlockList = index.RawView{IDs: host}
				if step == 0 {
					short = index.EFView{L: ordered[0].EF}
				}
				host = intersect.Pair(short, index.EFView{L: ordered[step+1].EF}, 0).IDs
			})
			step++
			if len(host) != rec.NOut {
				return nil, nil, fmt.Errorf("read %d: replayed CPU intersect %d gave %d, plan %d", read, step, len(host), rec.NOut)
			}
		case rec.Kind == exec.OpUpload || rec.Kind == exec.OpDecompress || rec.Kind == exec.OpMigrate || rec.Kind == exec.OpIntersect:
			l0 := dev.Launches()
			a.kernelHost += tr.timed("kernels", rec.Kind.String(), read, execID, func() {
				switch rec.Kind {
				case exec.OpUpload:
					if rec.Term == "" {
						var b *gpu.Buffer
						if b, err = s.H2D(host, int64(len(host))*4); err == nil {
							owned = append(owned, b)
							devRes = &kernels.IntersectResult{Out: b, Count: len(host)}
						}
						return
					}
					pl, _ := ix.Lookup(rec.Term)
					var b *gpu.Buffer
					if b, err = kernels.UploadEF(s, pl.EF); err == nil {
						owned = append(owned, b)
						entry(rec.Term).comp = b
					}
				case exec.OpDecompress:
					var b *gpu.Buffer
					if b, _, err = kernels.ParaEFDecompress(s, entry(rec.Term).comp); err == nil {
						owned = append(owned, b)
						entry(rec.Term).dec = b
					}
				case exec.OpIntersect:
					var short *gpu.Buffer
					if step == 0 {
						short = entry(ordered[0].Term).dec
					} else {
						short = devRes.Out
						short.Data = devRes.Matches()
					}
					long := entry(ordered[step+1].Term)
					var out *kernels.IntersectResult
					if rec.Algo == exec.AlgoBinarySkips {
						out, err = kernels.IntersectBinarySkips(s, short, long.comp)
					} else {
						out, err = kernels.IntersectMergePath(s, short, long.dec)
					}
					if err == nil {
						owned = append(owned, out.Out)
						devRes = out
					}
				case exec.OpMigrate:
					switch {
					case rec.Term != "":
						pl, _ := ix.Lookup(rec.Term)
						host = s.D2H(entry(rec.Term).dec, int64(pl.N)*4).([]uint32)
					case devRes.Count == 0:
						host = []uint32{}
					default:
						host = s.D2H(devRes.Out, int64(devRes.Count)*4).([]uint32)[:devRes.Count]
					}
				}
			})
			a.launches += dev.Launches() - l0
			if err != nil {
				return nil, nil, fmt.Errorf("read %d: replaying %v: %w", read, rec.Kind, err)
			}
			if rec.Kind == exec.OpIntersect {
				step++
				if devRes.Count != rec.NOut {
					return nil, nil, fmt.Errorf("read %d: replayed GPU intersect %d gave %d, plan %d", read, step, devRes.Count, rec.NOut)
				}
			}
		case rec.Kind == exec.OpScore:
			scorer := rank.NewScorer(ix, rank.DefaultBM25())
			a.scoreHost += tr.timed("rank", "Scorer.ScoreCandidates", read, execID, func() {
				scored, _ = scorer.ScoreCandidates(lists, host)
			})
			a.candidates += len(host)
		case rec.Kind == exec.OpTopK:
			a.topkHost += tr.timed("rank", "TopKCPU", read, execID, func() {
				docs, _ = rank.TopKCPU(scored, topK)
			})
		default:
			return nil, nil, fmt.Errorf("read %d: cannot replay %v", read, rec.Kind)
		}
	}
	for _, ev := range s.Profile() {
		if ev.Kind == "alloc" {
			a.allocs++
		}
	}
	if docs == nil {
		docs = []kernels.ScoredDoc{}
	}
	return docs, host, nil
}

// finish writes the codec, index, intersect, rank, kernels, gpu, exec
// and core metrics. reads is the number of reads the simulated sums
// cover (a cluster read counts once).
func (a *layerAcc) finish(m metrics, reads int) {
	n := float64(max(a.replayed, 1))
	m.set("ef.decode_ns_per_posting", float64(a.efHost)/float64(max(a.efPostings, 1)), "ns")
	m.set("index.freq_probes_per_read", float64(a.freqCalls)/n, "count")
	m.set("index.freq_probe_ns", float64(a.freqHost)/float64(max(a.freqCalls, 1)), "ns")
	m.set("intersect.host_us_per_read", us(a.intersectHost)/n, "us")
	m.set("rank.score_ns_per_candidate", float64(a.scoreHost)/float64(max(a.candidates, 1)), "ns")
	m.set("rank.topk_us_per_read", us(a.topkHost)/n, "us")
	m.set("kernels.launch_us", us(a.kernelHost)/float64(max(a.launches, 1)), "us")
	m.set("gpu.launches_per_read", float64(a.launches)/n, "count")
	m.set("gpu.allocs_per_launch", float64(a.allocs)/float64(max(a.launches, 1)), "count")
	m.set("core.search_host_ms", ms(a.coreHost)/n, "ms")
	m.set("core.allocs_per_read", float64(a.coreAllocs)/n, "count")
	m.set("core.bytes_per_read", float64(a.coreBytes)/n, "B")

	r := float64(max(reads, 1))
	for _, op := range []string{"decompress_gpu", "decompress_cpu", "upload", "intersect_gpu", "intersect_cpu", "migrate", "score", "topk"} {
		m.set("exec."+op+"_ms", ms(a.byOp[op])/r, "ms")
	}
	m.set("exec.migrated_frac", float64(a.migrated)/r, "ratio")
	m.set("exec.est_rel_err", a.estErrSum/float64(max(a.estErrN, 1)), "ratio")
	m.set("gpu.wait_ms", ms(a.gpuWait)/r, "ms")

	// Host shares of the replayed plans: each operator layer's self time
	// over the time the plan replays took in all.
	total, self := a.tr.layerTimes()
	if plans := total["exec"]; plans > 0 {
		for _, l := range []string{"kernels", "intersect", "rank"} {
			m.set("share."+l, float64(self[l])/float64(plans), "ratio")
		}
	}
}

// layerDefaults sets every per-layer metric to zero, so a layer a
// workload does not exercise reads zero rather than going missing.
func layerDefaults(m metrics) {
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
}

// perLayer lists every per-layer metric a traced run reports.
var perLayer = []struct{ name, unit string }{
	{"ef.decode_ns_per_posting", "ns"},
	{"index.freq_probes_per_read", "count"},
	{"index.freq_probe_ns", "ns"},
	{"intersect.host_us_per_read", "us"},
	{"rank.score_ns_per_candidate", "ns"},
	{"rank.topk_us_per_read", "us"},
	{"kernels.launch_us", "us"},
	{"gpu.launches_per_read", "count"},
	{"gpu.allocs_per_launch", "count"},
	{"gpu.wait_ms", "ms"},
	{"gpu.util", "ratio"},
	{"gpu.batch_members_per_batch", "count"},
	{"gpu.batch_saved_ms_per_read", "ms"},
	{"exec.decompress_gpu_ms", "ms"},
	{"exec.decompress_cpu_ms", "ms"},
	{"exec.upload_ms", "ms"},
	{"exec.intersect_gpu_ms", "ms"},
	{"exec.intersect_cpu_ms", "ms"},
	{"exec.migrate_ms", "ms"},
	{"exec.score_ms", "ms"},
	{"exec.topk_ms", "ms"},
	{"exec.migrated_frac", "ratio"},
	{"exec.est_rel_err", "ratio"},
	{"core.search_host_ms", "ms"},
	{"core.allocs_per_read", "count"},
	{"core.bytes_per_read", "B"},
	{"core.cache_hit_frac", "ratio"},
	{"cluster.sim_max_shard_ms", "ms"},
	{"cluster.sim_merge_ms", "ms"},
	{"cluster.self_host_ms", "ms"},
	{"overload.shed_frac", "ratio"},
	{"overload.deadline_miss_frac", "ratio"},
	{"ingest.add_host_us", "us"},
	{"ingest.merges", "count"},
	{"ingest.merge_host_ms", "ms"},
	{"ingest.delta_docs_at_read", "count"},
	{"wal.sync_us", "us"},
	{"wal.appends", "count"},
	{"wal.syncs", "count"},
	{"wal.checkpoints", "count"},
	{"server.self_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.late_sends", "count"},
	{"go.gc_pause_ms_per_s", "ms/s"},
	{"go.heap_peak_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"fail_frac", "ratio"},
	{"wrong_results", "count"},
	{"write_p50_ms", "ms"},
	{"share.kernels", "ratio"},
	{"share.intersect", "ratio"},
	{"share.rank", "ratio"},
	{"share.cluster", "ratio"},
	{"share.server", "ratio"},
}
