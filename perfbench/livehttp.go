package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/index"
	"griffin/internal/ingest"
	"griffin/internal/server"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

const (
	// liveReadRate and liveWriteRate are the fixed send schedules of the
	// two client connections, in requests per second of wall clock. With
	// both connections sending back to back (--capacity), the served
	// system answered a median of 711 reads/s beside 926 writes/s over
	// seeds 1-3 on a 2-core machine. Reads are sent at about a quarter
	// of that read rate and writes at two thirds of the read rate, so 40%
	// of the operations are writes, the middle write fraction of the
	// repository's ingest sweep (experiments.RunIngestSweep).
	liveReadRate  = 175.0
	liveWriteRate = 117.0
	// liveLimit is the latency, from scheduled send to full response,
	// an operation must meet to count as goodput.
	liveLimit = 40 * time.Millisecond
	// liveMergeThreshold makes auto-merges fire several times per run.
	// liveSyncEvery syncs each shard's WAL every 64 appends, under the
	// ingest writer lock that reads refreshing their snapshot wait for;
	// against every 16, a disk kept busy by another process raised read
	// p99 by about a tenth instead of a fifth. A checkpoint builds the
	// whole corpus while holding the ingest writer lock, and reads that
	// need a fresh snapshot wait for it; checkpointing every 140
	// mutations (every 1.2 s of writes) stalls reads more than twenty
	// times a run, so those stalls set read p99 as an average over many
	// of them rather than by where one or two happen to fall.
	liveMergeThreshold  = 100
	liveCheckpointEvery = 140
	liveSyncEvery       = 64
	// liveChecks bounds how many acknowledged mutations the output check
	// looks up by marker.
	liveChecks = 48
	// liveReplayWrites is how many script mutations the traced run
	// replays directly into a fresh ingest cluster and a bare WAL.
	liveReplayWrites = 200
)

var walOps = map[string]wal.Op{"add": wal.OpAdd, "update": wal.OpUpdate, "delete": wal.OpDelete}

// mutation is one scripted write. Adds and updates carry a marker token
// no other document has, so the check can find exactly that version.
type mutation struct {
	Op     string   `json:"op"`
	DocID  uint32   `json:"doc_id"`
	Tokens []string `json:"tokens,omitempty"`
	marker string
}

// liveEnv is a GPU-less deployment as an operator runs it: the HTTP
// server over a durable 2-shard CPU-only ingest cluster, with one
// connection reading and one writing on fixed wall-clock schedules.
type liveEnv struct {
	dir     string
	corpus  *workload.Corpus
	queries [][]string
	script  []mutation
	n       int
	sys     *liveSys
	used    bool
}

// liveSys is one incarnation of the served system.
type liveSys struct {
	lc   *ingest.Cluster
	srv  *server.Server
	hs   *http.Server
	base string
	dir  string
	done chan struct{}
}

func setupLiveHTTP(seed int64, dir string) (env, error) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    250_000,
		NumTerms:   200,
		MaxListLen: 50_000,
		MinListLen: 200,
		Alpha:      0.85,
		Codec:      index.CodecEF,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries:      logLen,
		PopularityAlpha: 0.45,
		StopwordRanks:   len(c.Terms) / 200,
		Seed:            seed*7 + 1,
	})
	e := &liveEnv{dir: dir, corpus: c, queries: make([][]string, len(log))}
	for i, q := range log {
		e.queries[i] = q.Terms
	}
	e.script = liveScript(seed, logLen, uint32(c.Index.NumDocs), e.queries)
	if e.sys, err = e.build(); err != nil {
		return nil, err
	}
	return e, nil
}

// liveScript generates a sequentially valid mutation script: adds of
// fresh documents past the corpus, updates of live ones and deletes, in
// the 70/15/15 mix of the repository's ingest sweep
// (experiments.RunIngestSweep).
func liveScript(seed int64, n int, base uint32, queries [][]string) []mutation {
	rng := rand.New(rand.NewSource(seed*7 + 3))
	var live []uint32
	next := base
	out := make([]mutation, n)
	for i := range out {
		m := mutation{marker: fmt.Sprintf("mk%xx%d", uint64(seed), i)}
		switch r := rng.Float64(); {
		case r < 0.7 || len(live) < 16:
			m.Op, m.DocID = "add", next
			live = append(live, next)
			next++
		case r < 0.85:
			m.Op, m.DocID = "update", live[rng.Intn(len(live))]
		default:
			j := rng.Intn(len(live))
			m.Op, m.DocID = "delete", live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if m.Op != "delete" {
			for len(m.Tokens) < 4+rng.Intn(5) {
				q := queries[rng.Intn(len(queries))]
				m.Tokens = append(m.Tokens, q[rng.Intn(len(q))])
			}
			m.Tokens = append(m.Tokens, m.marker)
		}
		out[i] = m
	}
	return out
}

func (e *liveEnv) clusterConfig(walDir string, autoMerge bool) ingest.ClusterConfig {
	cfg := ingest.ClusterConfig{
		Shards:         2,
		Cluster:        cluster.Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: topK},
		MergeThreshold: liveMergeThreshold,
		AutoMerge:      autoMerge,
		WALDir:         walDir,
		WALSyncEvery:   liveSyncEvery,
	}
	if autoMerge {
		cfg.CheckpointEvery = liveCheckpointEvery
	}
	return cfg
}

// build opens a fresh durable cluster in a new WAL directory and serves
// it on a loopback listener.
func (e *liveEnv) build() (*liveSys, error) {
	e.n++
	dir := filepath.Join(e.dir, fmt.Sprintf("wal%d", e.n))
	lc, err := ingest.OpenCluster(e.corpus.Index, e.clusterConfig(dir, true))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lc.Close()
		return nil, err
	}
	s := &liveSys{lc: lc, srv: server.NewLiveCluster(lc, 0), base: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *liveSys) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.lc.Close()
	os.RemoveAll(s.dir)
}

func (e *liveEnv) close() {
	if e.sys != nil {
		e.sys.close()
	}
}

// liveOp is one request's outcome.
type liveOp struct {
	ok   bool
	host time.Duration // scheduled send to full response
	late time.Duration // actual send behind schedule
	sim  time.Duration // reads: simulated latency the server reported
	lag  int           // writes: delta size the ack reported
}

// openLoop issues n requests at a fixed rate from start, one at a time
// on the caller's goroutine; a request is due at its slot whether or not
// earlier ones have finished, and is timed from that slot.
func openLoop(start time.Time, rate float64, n int, do func(i int, due time.Time) liveOp) []liveOp {
	out := make([]liveOp, n)
	for i := range out {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late := time.Since(due)
		out[i] = do(i, due)
		out[i].late = late
	}
	return out
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
}

func (e *liveEnv) drive(d time.Duration, _ int, tr *tracer) (*phase, error) {
	if e.used {
		e.sys.close()
		var err error
		if e.sys, err = e.build(); err != nil {
			return nil, err
		}
	}
	e.used = true
	sys := e.sys
	nr, nw := int(d.Seconds()*liveReadRate), int(d.Seconds()*liveWriteRate)
	if nr > len(e.queries) || nw > len(e.script) {
		return nil, fmt.Errorf("phase of %v needs more than the %d generated operations", d, logLen)
	}
	rc, wc := newClient(), newClient()
	defer rc.CloseIdleConnections()
	defer wc.CloseIdleConnections()

	var reads, writes []liveOp
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		reads = openLoop(start, liveReadRate, nr, func(i int, due time.Time) liveOp {
			var id int
			if tr != nil {
				id = tr.begin("read", "GET /search", i, 0)
			}
			op := sys.read(rc, e.queries[i], due)
			if tr != nil {
				tr.end(id)
			}
			return op
		})
	}()
	go func() {
		defer wg.Done()
		writes = openLoop(start, liveWriteRate, nw, func(i int, due time.Time) liveOp {
			return sys.write(wc, e.script[i], due)
		})
	}()
	wg.Wait()

	ph := &phase{wall: time.Since(start)}
	for _, op := range reads {
		ph.attempted++
		ph.late = append(ph.late, op.late)
		if !op.ok {
			ph.failed++
			continue
		}
		if op.host <= liveLimit {
			ph.good++
		}
		ph.readHost = append(ph.readHost, op.host)
		ph.sims = append(ph.sims, simRecord{Latency: op.sim})
	}
	for _, op := range writes {
		ph.attempted++
		ph.late = append(ph.late, op.late)
		if !op.ok {
			ph.failed++
			continue
		}
		if op.host <= liveLimit {
			ph.good++
		}
		ph.writeHost = append(ph.writeHost, op.host)
		ph.lagSum += op.lag
	}
	var err error
	ph.wrong, err = e.checkMarkers(writes)
	return ph, err
}

// capacity measures the served system's closed-loop capacity: reads
// alone on one connection, writes alone on another, then both at once,
// each for d on a freshly built system, with every request sent as soon
// as the previous one answered. The open-loop rates above are a stated
// share of the mixed figures.
func (e *liveEnv) capacity(d time.Duration) error {
	for _, arm := range []struct {
		name          string
		reads, writes bool
	}{{"reads", true, false}, {"writes", false, true}, {"mixed", true, true}} {
		sys, err := e.build()
		if err != nil {
			return err
		}
		// Each connection's goroutine counts its own sent and failed
		// requests.
		var nr, nw, fr, fw int
		var wg sync.WaitGroup
		loop := func(n, failed *int, ops int, do func(c *http.Client, i int) liveOp) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for end := time.Now().Add(d); time.Now().Before(end) && *n < ops; *n++ {
				if !do(c, *n).ok {
					*failed++
				}
			}
		}
		start := time.Now()
		if arm.reads {
			wg.Add(1)
			go loop(&nr, &fr, len(e.queries), func(c *http.Client, i int) liveOp { return sys.read(c, e.queries[i], time.Now()) })
		}
		if arm.writes {
			wg.Add(1)
			go loop(&nw, &fw, len(e.script), func(c *http.Client, i int) liveOp { return sys.write(c, e.script[i], time.Now()) })
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		sys.close()
		fmt.Printf("live-http capacity %-6s reads %7.1f/s writes %7.1f/s failed %d\n", arm.name, float64(nr)/secs, float64(nw)/secs, fr+fw)
	}
	return nil
}

func (s *liveSys) read(c *http.Client, terms []string, due time.Time) liveOp {
	resp, err := c.Get(s.base + "/search?q=" + url.QueryEscape(strings.Join(terms, " ")))
	if err != nil {
		return liveOp{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op := liveOp{host: time.Since(due)}
	if err != nil || resp.StatusCode != http.StatusOK {
		return op
	}
	var sr server.SearchResponse
	if json.Unmarshal(body, &sr) != nil || sr.Degraded {
		return op
	}
	op.ok = true
	op.sim = time.Duration(sr.LatencyMS * float64(time.Millisecond))
	return op
}

func (s *liveSys) write(c *http.Client, m mutation, due time.Time) liveOp {
	b, err := json.Marshal(m)
	if err != nil {
		return liveOp{}
	}
	resp, err := c.Post(s.base+"/ingest", "application/json", bytes.NewReader(b))
	if err != nil {
		return liveOp{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	op := liveOp{host: time.Since(due)}
	if err != nil || resp.StatusCode != http.StatusOK {
		return op
	}
	var ir server.IngestResponse
	if json.Unmarshal(body, &ir) != nil {
		return op
	}
	op.ok, op.lag = true, int(ir.Lag)
	return op
}

// checkMarkers replays the acknowledged mutations in order to the state
// they must leave, then looks up a sample of markers: the marker of each
// live document's current version must find it, and the marker of a
// superseded or deleted version must not.
func (e *liveEnv) checkMarkers(acked []liveOp) (int, error) {
	current := map[uint32]string{}
	gone := map[string]uint32{}
	for i, op := range acked {
		if !op.ok {
			continue
		}
		m := e.script[i]
		if old, ok := current[m.DocID]; ok {
			gone[old] = m.DocID
		}
		if m.Op == "delete" {
			delete(current, m.DocID)
		} else {
			current[m.DocID] = m.marker
		}
	}
	type probe struct {
		marker string
		doc    uint32
		want   bool
	}
	var probes []probe
	docs := make([]uint32, 0, len(current))
	for d := range current {
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for _, i := range spread(len(docs), liveChecks) {
		probes = append(probes, probe{current[docs[i]], docs[i], true})
	}
	markers := make([]string, 0, len(gone))
	for mk := range gone {
		markers = append(markers, mk)
	}
	sort.Strings(markers)
	for _, i := range spread(len(markers), liveChecks) {
		probes = append(probes, probe{markers[i], gone[markers[i]], false})
	}
	wrong := 0
	for _, p := range probes {
		r, err := e.sys.lc.Search([]string{p.marker})
		if err != nil {
			return 0, fmt.Errorf("marker lookup %s: %w", p.marker, err)
		}
		found := false
		for _, d := range r.Docs {
			found = found || d.DocID == p.doc
		}
		if found != p.want {
			wrong++
		}
	}
	return wrong, nil
}

func (e *liveEnv) check(ph *phase) (int, error) { return ph.wrong, nil }

// simQPS is the reads over the sum of their simulated latencies: the
// reads carry no simulated arrival time, so there is no makespan, and
// the served system's modeled timeline follows wall-clock overlap.
func (e *liveEnv) simQPS(ph *phase) (float64, int, error) {
	var sum time.Duration
	for _, s := range ph.sims {
		sum += s.Latency
	}
	return float64(len(ph.sims)) / sum.Seconds(), 0, nil
}

// layers replays the traced phase's reads through the server and the
// ingest cluster, the shard engines below them, and the write script
// through a fresh ingest cluster and a bare write-ahead log.
func (e *liveEnv) layers(ph *phase, tr *tracer, m metrics) error {
	late := 0
	for _, l := range ph.late {
		if l > time.Millisecond {
			late++
		}
	}
	m.set("loadgen.late_p99_ms", ms(pctDur(ph.late, 99)), "ms")
	m.set("loadgen.late_sends", float64(late), "count")
	m.set("write_p50_ms", ms(pctDur(ph.writeHost, 50)), "ms")
	m.set("ingest.delta_docs_at_read", frac(ph.lagSum, len(ph.writeHost)), "count")
	st := e.sys.lc.Stats()
	m.set("ingest.merges", float64(st.Merges), "count")
	if st.WAL != nil {
		m.set("wal.appends", float64(st.WAL.Appends), "count")
		m.set("wal.syncs", float64(st.WAL.Syncs), "count")
		m.set("wal.checkpoints", float64(st.WAL.Checkpoints), "count")
	}

	// Reads: the server's own cost is a request through ServeHTTP minus
	// the same search made directly on the ingest cluster; the shard
	// engines are replayed standalone over the cluster's current shard
	// segments.
	acc := newLayerAcc(tr)
	cl := e.sys.lc.Cluster()
	engines := make([]*core.Engine, cl.NumShards())
	for s := range engines {
		eng, err := core.New(cl.ShardIndex(s), core.Config{Mode: core.CPUOnly, TopK: topK})
		if err != nil {
			return err
		}
		engines[s] = eng
	}
	var serveHost, searchHost time.Duration
	for j, i := range sampleReads(len(ph.readHost)) {
		terms := e.queries[i]
		root := tr.begin("replay", "read", i, 0)
		req := httptest.NewRequest(http.MethodGet, "/search?q="+url.QueryEscape(strings.Join(terms, " ")), nil)
		rec := httptest.NewRecorder()
		var err error
		serve := func() {
			serveHost += tr.timed("server", "Server.ServeHTTP", i, root, func() { e.sys.srv.ServeHTTP(rec, req) })
		}
		search := func() {
			searchHost += tr.timed("ingest", "Cluster.Search", i, root, func() { _, err = e.sys.lc.Search(terms) })
		}
		// Alternate which runs first, so neither gains from caches the
		// other warmed.
		if j%2 == 0 {
			serve()
			search()
		} else {
			search()
			serve()
		}
		if err == nil && rec.Code != http.StatusOK {
			err = fmt.Errorf("replayed request answered %d", rec.Code)
		}
		for _, eng := range engines {
			if err != nil {
				break
			}
			_, err = acc.replayEngine(i, root, eng, terms, nil)
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
		acc.replayed++
	}
	acc.finish(m, 0)
	k := float64(max(acc.replayed, 1))
	m.set("server.self_us", us(serveHost-searchHost)/k, "us")
	m.set("share.server", float64(serveHost-searchHost)/float64(max(serveHost, 1)), "ratio")
	return e.writeLayers(tr, m)
}

// writeLayers times the first script mutations applied directly to a
// fresh ingest cluster, an explicit merge of each of its shards, and the
// same records appended and synced one by one to a bare WAL.
func (e *liveEnv) writeLayers(tr *tracer, m metrics) error {
	script := e.script[:liveReplayWrites]
	dir := filepath.Join(e.dir, "replay")
	defer os.RemoveAll(dir)
	lc, err := ingest.OpenCluster(e.corpus.Index, e.clusterConfig(filepath.Join(dir, "cluster"), false))
	if err != nil {
		return err
	}
	defer lc.Close()
	host := make([]time.Duration, len(script))
	for i, mu := range script {
		host[i] = tr.timed("ingest", "Cluster."+mu.Op, i, 0, func() {
			switch mu.Op {
			case "add":
				err = lc.Add(mu.DocID, mu.Tokens)
			case "update":
				err = lc.Update(mu.DocID, mu.Tokens)
			default:
				err = lc.Delete(mu.DocID)
			}
		})
		if err != nil {
			return fmt.Errorf("replaying mutation %d: %w", i, err)
		}
	}
	m.set("ingest.add_host_us", us(pctDur(host, 50)), "us")
	var merge time.Duration
	for s := 0; s < lc.Shards(); s++ {
		merge += tr.timed("ingest", "Cluster.MergeShard", s, 0, func() { err = lc.MergeShard(s) })
		if err != nil {
			return err
		}
	}
	m.set("ingest.merge_host_ms", ms(merge)/float64(lc.Shards()), "ms")

	store, _, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Shards: 1})
	if err != nil {
		return err
	}
	defer store.Close()
	for i, mu := range script {
		rec := wal.Record{Gen: uint64(i + 1), Op: walOps[mu.Op], DocID: mu.DocID, Tokens: mu.Tokens}
		host[i] = tr.timed("wal", "Store.Append+Sync", i, 0, func() {
			if err = store.Append(0, rec); err == nil {
				err = store.Sync()
			}
		})
		if err != nil {
			return err
		}
	}
	m.set("wal.sync_us", us(pctDur(host, 50)), "us")
	return nil
}
