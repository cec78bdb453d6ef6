// Command perfbench is griffin's benchmark: one end-to-end run of a named
// workload, its output checks, and (with --trace 1) a replay of sampled
// reads through each lower layer's public functions that yields per-layer
// metrics in both of griffin's clocks — host wall-clock time and the
// simulated time the paper studies.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-log --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any wrong result,
// simulated-clock reconciliation failure or determinism failure makes the
// command exit non-zero. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its workload's inputs and
// system; setup_s is the median, so one slow build does not move it.
const setupRepeats = 3

// env is one workload's system under test, built from the seed.
type env interface {
	// drive runs the timed phase for d (or until maxReads reads when
	// maxReads > 0) on a system built fresh for the phase. tr is nil on
	// untraced phases.
	drive(d time.Duration, maxReads int, tr *tracer) (*phase, error)
	// check verifies a phase's outputs and returns how many were wrong.
	// Reconciliation and determinism failures are returned as errors.
	check(ph *phase) (wrong int, err error)
	// simQPS is the workload's simulated throughput, with the number of
	// wrong outputs any extra reads it makes returned.
	simQPS(ph *phase) (qps float64, wrong int, err error)
	// layers replays sampled reads of a traced phase through the lower
	// layers and fills the per-layer metrics.
	layers(ph *phase, tr *tracer, m metrics) error
	close()
}

// workloadSpec names one workload and how to build it; BENCHMARK.json
// and README.md record why each exists.
type workloadSpec struct {
	name  string
	setup func(seed int64, dir string) (env, error)
	// deterministic marks workloads whose simulated timeline depends only
	// on the seed, so sim_* values must repeat bit for bit.
	deterministic bool
}

var workloads = []workloadSpec{
	{
		name:          "paper-log",
		setup:         setupPaperLog,
		deterministic: true,
	},
	{
		name:          "sharded-hot",
		setup:         setupShardedHot,
		deterministic: true,
	},
	{
		name:  "live-http",
		setup: setupLiveHTTP,
	},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-log, sharded-hot, live-http, or all")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 35, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for temporary files, determinism digests and traces")
	capacity := fs.Bool("capacity", false, "measure live-http's closed-loop capacity for --seconds per arm instead of running the benchmark")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var specs []workloadSpec
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			specs = append(specs, w)
		}
	}
	if len(specs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *capacity {
		return runCapacity(*seed, time.Duration(*seconds)*time.Second, *out)
	}
	o := opts{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, out: *out}

	all := result{Correct: true, Metrics: map[string]metricVal{}}
	var last result
	for _, w := range specs {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(w.name, res)
		last = res
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	if len(specs) > 1 {
		last = all
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !last.Correct {
		return 1
	}
	return 0
}

// runCapacity prints live-http's closed-loop capacity, the basis of its
// open-loop rates.
func runCapacity(seed int64, d time.Duration, out string) int {
	dir, err := os.MkdirTemp(out, "capacity-")
	if err == nil {
		defer os.RemoveAll(dir)
		var e env
		if e, err = setupLiveHTTP(seed, dir); err == nil {
			defer e.close()
			err = e.(*liveEnv).capacity(d)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

type opts struct {
	seed  int64
	dur   time.Duration
	trace bool
	out   string
}

// runWorkload sets the workload up setupRepeats times, runs its timed
// phase, checks the outputs and, in a traced run, replays the layers.
func runWorkload(w workloadSpec, o opts) (result, error) {
	dir, err := os.MkdirTemp(o.out, "run-"+w.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	var e env
	setups := make([]float64, setupRepeats)
	for i := range setups {
		if e != nil {
			e.close()
			e = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		e, err = w.setup(o.seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer e.close()
	runtime.GC()

	if o.trace {
		return tracedRun(w, e, o)
	}

	ph, err := e.drive(o.dur, 0, nil)
	if err != nil {
		return result{}, err
	}
	// The checks hold their own state (the oracle's decoded lists), so
	// peak memory is read before they run.
	peak := peakRSSMB()
	t0 := time.Now()
	wrong, err := e.check(ph)
	if err != nil {
		return result{}, err
	}
	t1 := time.Now()
	if w.deterministic {
		if err := checkDeterminism(w, e, ph, o); err != nil {
			return result{}, err
		}
	}
	t2 := time.Now()
	qps, n, err := e.simQPS(ph)
	if err != nil {
		return result{}, err
	}
	wrong += n
	fmt.Fprintf(os.Stderr, "%s: setups %.3v s, checks %v, determinism %v, sim_qps %v, whole-phase read p50 %v p99 %v\n", w.name, setups, t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond), time.Since(t2).Round(time.Millisecond), pctDur(ph.readHost, 50), pctDur(ph.readHost, 99))
	fmt.Printf("%s: wrong_results %d\n", w.name, wrong)

	m := metrics{}
	endToEnd(m, ph)
	m.set("sim_qps", qps, "1/s")
	m.set("setup_s", median(setups), "s")
	m.set("mem_peak_mb", peak, "MB")
	return result{Correct: wrong == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// tracedRun measures the same timed phase twice on fresh systems, once
// untraced and once with a span per read, then replays sampled reads of
// the traced phase through the lower layers. The spans are written to
// the output directory when the run ends.
func tracedRun(w workloadSpec, e env, o opts) (result, error) {
	half := o.dur / 2
	base, err := e.drive(half, 0, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ph, err := e.drive(half, 0, tr)
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&after)

	wrong := 0
	for _, p := range []*phase{base, ph} {
		n, err := e.check(p)
		if err != nil {
			return result{}, err
		}
		wrong += n
	}
	if w.deterministic {
		if err := samePrefix(base.sims, ph.sims, min(len(base.sims), len(ph.sims))); err != nil {
			return result{}, fmt.Errorf("determinism: untraced and traced phases differ: %w", err)
		}
	}
	fmt.Printf("%s: wrong_results %d\n", w.name, wrong)

	m := metrics{}
	layerDefaults(m)
	if err := e.layers(ph, tr, m); err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	n := min(len(base.readHost), len(ph.readHost))
	if n > 0 {
		untraced := pctDur(base.readHost[:n], 50)
		traced := pctDur(ph.readHost[:n], 50)
		m.set("trace.overhead_frac", (ms(traced)-ms(untraced))/ms(untraced), "ratio")
	}
	m.set("go.gc_pause_ms_per_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6/ph.wall.Seconds(), "ms/s")
	m.set("go.heap_peak_mb", float64(after.HeapSys)/(1<<20), "MB")
	m.set("fail_frac", frac(ph.failed, ph.attempted), "ratio")
	m.set("wrong_results", float64(wrong), "count")

	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, len(tr.spans), path)
	return result{Correct: wrong == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// checkDeterminism re-runs the first reads of the phase on a freshly
// built system and compares every simulated number bit for bit. It also
// compares them with the digest an earlier run of the same binary and
// seed stored, so the simulated clock must repeat across runs too.
func checkDeterminism(w workloadSpec, e env, ph *phase, o opts) error {
	const k = 32
	if len(ph.sims) == 0 {
		return fmt.Errorf("determinism: the phase completed no reads")
	}
	again, err := e.drive(time.Hour, min(k, len(ph.sims)), nil)
	if err != nil {
		return err
	}
	if err := samePrefix(ph.sims, again.sims, len(again.sims)); err != nil {
		return fmt.Errorf("determinism: rerun differs: %w", err)
	}
	return checkDigest(o.out, w.name, o.seed, ph.sims[:len(again.sims)])
}

func samePrefix(a, b []simRecord, n int) error {
	if len(a) < n || len(b) < n {
		return fmt.Errorf("prefix of %d reads not available (%d, %d)", n, len(a), len(b))
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Errorf("read %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	return nil
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func printResult(name string, r result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s: attempted %d failed %d correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, k := range keys {
		v := r.Metrics[k]
		fmt.Printf("%s: %-34s %16.6f %s\n", name, k, v.Value, v.Unit)
	}
}
