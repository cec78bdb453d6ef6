package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is one run's named measurements.
type metrics map[string]metricVal

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricVal{Value: v, Unit: unit}
}

// phase is what one timed phase measured.
type phase struct {
	wall time.Duration
	// readHost is each completed read's host latency, in issue order.
	readHost []time.Duration
	// sims is each completed read's simulated record, in issue order.
	sims      []simRecord
	writeHost []time.Duration
	// attempted counts operations sent, failed those that errored, were
	// refused or came back degraded, good those answered within the
	// workload's latency limit.
	attempted, failed, good int
	// late is how far behind its schedule each open-loop send went out.
	late []time.Duration
	// lagSum totals the delta sizes write acknowledgements reported.
	lagSum int
	// wrong counts outputs a check made during the phase found wrong.
	wrong int
	// reads holds the workload's own per-read records for the checks
	// and the layer replay.
	reads []readRec
}

// simRecord is one read's simulated-clock outcome; two runs of one seed
// must produce identical records.
type simRecord struct {
	Latency, CPU, GPU, Wait time.Duration
	Docs                    uint64 // FNV digest of the result's doc IDs and score bits
}

// readWindows is how many equal consecutive slices of a phase's reads
// the host read percentiles are taken over. Each is reported as the
// median of its slices' values, so a stretch of a run in which other
// tenants slow the machine moves it less than a whole-run percentile
// would. A slice of a 35-second run holds about 900 to 1600 reads, so
// about ten or more lie beyond its p99.
const readWindows = 4

// endToEnd derives the end-to-end metrics every workload reports from
// its timed phase; sim_qps comes from env.simQPS.
func endToEnd(m metrics, ph *phase) {
	m.set("read_p50_ms", ms(windowedPct(ph.readHost, 50)), "ms")
	m.set("read_p99_ms", ms(windowedPct(ph.readHost, 99)), "ms")
	m.set("read_qps", float64(len(ph.readHost))/ph.wall.Seconds(), "1/s")
	m.set("goodput_frac", frac(ph.good, ph.attempted), "ratio")
	sims := make([]time.Duration, len(ph.sims))
	for i, s := range ph.sims {
		sims[i] = s.Latency
	}
	m.set("sim_p50_ms", ms(pctDur(sims, 50)), "ms")
	m.set("sim_p99_ms", ms(pctDur(sims, 99)), "ms")
}

// windowedPct is the median over readWindows equal consecutive slices
// of d of each slice's p-th percentile; the few values past the last
// whole slice are left out.
func windowedPct(d []time.Duration, p float64) time.Duration {
	n := len(d) / readWindows
	if n == 0 {
		return pctDur(d, p)
	}
	v := make([]float64, readWindows)
	for i := range v {
		v[i] = float64(pctDur(d[i*n:(i+1)*n], p))
	}
	return time.Duration(median(v))
}

// pctDur is the nearest-rank p-th percentile.
func pctDur(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB; where
// /proc is unavailable it falls back to the memory the Go runtime holds.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// checkDigest compares the simulated records of a run's first reads with
// those an earlier run of the same binary, workload and seed stored, and
// stores them when no earlier run did.
func checkDigest(out, workload string, seed int64, sims []simRecord) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	bin := hex.EncodeToString(h.Sum(nil))[:16]
	d := sha256.New()
	for _, s := range sims {
		fmt.Fprintf(d, "%d %d %d %d %d\n", s.Latency, s.CPU, s.GPU, s.Wait, s.Docs)
	}
	sum := fmt.Sprintf("%d reads %x", len(sims), d.Sum(nil))
	path := filepath.Join(out, "simdigest", fmt.Sprintf("%s-%s-%d", bin, workload, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if strings.HasPrefix(string(prev), fmt.Sprintf("%d reads ", len(sims))) && string(prev) != sum {
			return fmt.Errorf("determinism: simulated records differ from an earlier run of seed %d (%s vs %s)", seed, prev, sum)
		}
		return nil
	case os.IsNotExist(err):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(sum), 0o644)
	default:
		return err
	}
}
