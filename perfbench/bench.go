package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/workload"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workDir  string
}

// workloadSpec is what sets one workload apart from the others.
type workloadSpec struct {
	cacheBytes int  // block cache capacity; 0 keeps the 32 MiB default
	ingest     bool // a writer and a range-query reader instead of one query client
}

var workloads = map[string]workloadSpec{
	"query-hot":    {},
	"query-cold":   {cacheBytes: 8 << 20},
	"ingest-mixed": {ingest: true},
}

const (
	preloadN     = 40000
	preloadBatch = 500   // as tman-loadgen's preload
	ingestN      = 20000 // per round: 500 batches, 1,500 per run
	ingestBatch  = 40

	// rounds per run. Each round sets up a fresh store, runs a slice of the
	// measured phase on it, then closes and reopens it. Every wall-clock
	// metric is computed per round and reported as the median of the
	// rounds, so a slow spell of the host that hits one round does not
	// move the result.
	rounds = 3
	// opListLen bounds the measured op list; a run that exhausts it stops
	// early instead of repeating windows the plan cache has seen.
	opListLen = 85 * 120
	// replayBlocks whole mix blocks are re-issued after the measured phase:
	// the first checksPerKind ops of each type have their answers checked,
	// and on ingest-mixed the block's charged I/O gives model_io_ms_per_query.
	replayBlocks  = 2
	checksPerKind = 4
	// probes acknowledged trajectories are looked up after every reopen.
	probes = 16
)

// lorryBoundary is the Lorry dataset's boundary, the data's coordinate space.
var lorryBoundary = geo.Rect{MinX: 70, MinY: 0, MaxX: 140, MaxY: 55}

func (c *config) validate() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want query-hot, query-cold or ingest-mixed)", c.workload)
	}
	if c.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", c.seconds)
	}
	return nil
}

// outcome is what a run hands the printer.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// openDB opens a durable database with tmand's defaults: no admission limit
// and no deadline are configured on the handler either.
func openDB(dir string, spec workloadSpec) (*tman.DB, error) {
	opts := []tman.Option{
		tman.WithShards(4),
		tman.WithShapeGrid(3, 3, 16),
		tman.WithShapeEncoding(tman.EncodingGreedy),
		tman.WithDataDir(dir),
	}
	if spec.cacheBytes > 0 {
		opts = append(opts, tman.WithBlockTuning(0, 0, spec.cacheBytes))
	}
	return tman.Open(lorryBoundary, opts...)
}

// respHead is the scalar part of a query or ingest response.
type respHead struct {
	Count      int     `json:"count"`
	Candidates int64   `json:"candidates"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	Partial    bool    `json:"partial"`
	Stored     int     `json:"stored"`
}

// parseHead decodes a response's scalar fields. httpapi writes them before
// the trajectory array, which is cut off here rather than decoded, so the
// measured loop spends little time between calls.
func parseHead(body []byte) (respHead, error) {
	if i := bytes.Index(body, []byte(`,"trajectories":`)); i >= 0 {
		body = append(body[:i:i], '}')
	}
	var h respHead
	err := json.Unmarshal(body, &h)
	return h, err
}

// span is one handler call: the benchmark's trace record, also the sample
// its end-to-end metrics are computed from.
type span struct {
	ReqID   string   `json:"req_id"`
	Kind    string   `json:"kind"` // a query type or "ingest"
	StartNS int64    `json:"start_ns"`
	EndNS   int64    `json:"end_ns"`
	Status  int      `json:"status"`
	Bytes   int      `json:"resp_bytes"`
	Head    respHead `json:"head"`
	SimIONS int64    `json:"sim_io_ns"` // traced runs only
	Err     string   `json:"err,omitempty"`
}

func (s *span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// ok reports whether the call succeeded as a complete answer.
func (s *span) ok() bool { return s.Status == http.StatusOK && !s.Head.Partial && s.Err == "" }

// runner holds one run's inputs and the database under test.
type runner struct {
	cfg  config
	spec workloadSpec
	db   *tman.DB
	h    http.Handler
}

// do sends one request through the handler, timing the call alone.
func (r *runner) do(req *http.Request, kind string, t0 time.Time) (span, []byte) {
	st := r.db.Engine().Store().Stats()
	var io0 int64
	if r.cfg.trace {
		io0 = st.SimIONanos.Load()
	}
	rec := httptest.NewRecorder()
	start := time.Since(t0)
	r.h.ServeHTTP(rec, req)
	end := time.Since(t0)
	sp := span{
		ReqID:   req.Header.Get("X-Request-Id"),
		Kind:    kind,
		StartNS: start.Nanoseconds(),
		EndNS:   end.Nanoseconds(),
		Status:  rec.Code,
		Bytes:   rec.Body.Len(),
	}
	if r.cfg.trace {
		sp.SimIONS = st.SimIONanos.Load() - io0
	}
	body := rec.Body.Bytes()
	h, err := parseHead(body)
	sp.Head = h
	if err != nil {
		sp.Err = err.Error()
	}
	return sp, body
}

// put sends one pre-encoded ingest batch of n trajectories.
func (r *runner) put(body []byte, n int, id string, t0 time.Time) span {
	req, err := http.NewRequest(http.MethodPut, "/trajectories", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("X-Request-Id", id)
	sp, _ := r.do(req, "ingest", t0)
	if sp.Err == "" && sp.Head.Stored != n {
		sp.Err = fmt.Sprintf("stored %d of %d", sp.Head.Stored, n)
	}
	return sp
}

// batches pre-encodes the PUT bodies, so set-up and the writer time the
// server and not the harness's JSON encoding.
func batches(ts []*model.Trajectory, size int) (bodies [][]byte, counts []int) {
	for lo := 0; lo < len(ts); lo += size {
		hi := min(lo+size, len(ts))
		bodies = append(bodies, ingestBody(ts[lo:hi]))
		counts = append(counts, hi-lo)
	}
	return bodies, counts
}

// setup opens a fresh store in dir, bulk-loads it through PUT, settles it
// and warms the caches. It returns the set-up time and the preload's batch
// spans.
func (r *runner) setup(dir string, bodies [][]byte, counts []int, warm []op) (time.Duration, []span, error) {
	t0 := time.Now()
	db, err := openDB(dir, r.spec)
	if err != nil {
		return 0, nil, fmt.Errorf("open: %w", err)
	}
	r.db, r.h = db, httpapi.New(db)
	var spans []span
	for i, b := range bodies {
		sp := r.put(b, counts[i], "preload-"+strconv.Itoa(i), t0)
		if !sp.ok() {
			return 0, nil, fmt.Errorf("preload batch %d: status %d %s", i, sp.Status, sp.Err)
		}
		spans = append(spans, sp)
	}
	if r.spec.ingest {
		db.Engine().Store().Quiesce()
	} else {
		db.Engine().Store().CompactAll()
	}
	for i := range warm {
		sp, _ := r.do(warm[i].request("warm-"+strconv.Itoa(i)), warm[i].kind.String(), t0)
		if !sp.ok() {
			return 0, nil, fmt.Errorf("warm-up %s: status %d %s", warm[i].target, sp.Status, sp.Err)
		}
	}
	return time.Since(t0), spans, nil
}

// queryLoop is one closed-loop client: it issues ops in order until stop
// says so or the list runs out.
func (r *runner) queryLoop(ops []op, t0 time.Time, stop func() bool) []span {
	var spans []span
	for i := 0; i < len(ops) && !stop(); i++ {
		sp, _ := r.do(ops[i].request("q-"+strconv.Itoa(i)), ops[i].kind.String(), t0)
		spans = append(spans, sp)
	}
	return spans
}

// phase is the measured phase's record.
type phase struct {
	queries []span
	writes  []span
	wall    time.Duration // query workloads: the loop; ingest-mixed: the writer
	acked   int           // trajectories acknowledged by the writer
}

func (p *phase) add(q phase) {
	p.queries = append(p.queries, q.queries...)
	p.writes = append(p.writes, q.writes...)
	p.wall += q.wall
	p.acked += q.acked
}

func (r *runner) queryPhase(ops []op, limit time.Duration) phase {
	t0 := time.Now()
	spans := r.queryLoop(ops, t0, func() bool { return time.Since(t0) >= limit })
	return phase{queries: spans, wall: time.Since(t0)}
}

// mixedPhase runs the writer and the reader together; the phase ends when
// the writer's last batch is acknowledged.
func (r *runner) mixedPhase(ops []op, bodies [][]byte, counts []int) phase {
	var (
		ph   phase
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	t0 := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, b := range bodies {
			sp := r.put(b, counts[i], "w-"+strconv.Itoa(i), t0)
			if sp.ok() {
				ph.acked += counts[i]
			}
			ph.writes = append(ph.writes, sp)
		}
		ph.wall = time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		ph.queries = r.queryLoop(ops, t0, func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		})
	}()
	wg.Wait()
	return ph
}

// replay re-issues the first blocks of the op list with the store idle and
// checks the answers of the first checksPerKind ops of each type against
// the oracle. It returns the kvstore I/O the replayed calls were charged.
func (r *runner) replay(ops []op, n int, orc *oracle, out *outcome) (simIONS int64, calls int) {
	st := r.db.Engine().Store().Stats()
	checked := map[opKind]int{}
	t0 := time.Now()
	for i := 0; i < n && i < len(ops); i++ {
		o := &ops[i]
		io0 := st.SimIONanos.Load()
		sp, body := r.do(o.request("check-"+strconv.Itoa(i)), o.kind.String(), t0)
		simIONS += st.SimIONanos.Load() - io0
		calls++
		if checked[o.kind] >= checksPerKind {
			continue
		}
		checked[o.kind]++
		out.attempted++
		if !sp.ok() {
			out.fail("%s %s: status %d partial %v %s", o.kind, o.target, sp.Status, sp.Head.Partial, sp.Err)
			continue
		}
		var resp httpapi.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			out.fail("%s %s: %v", o.kind, o.target, err)
			continue
		}
		if err := orc.check(o, &resp); err != nil {
			out.fail("%s %s: %v", o.kind, o.target, err)
		}
	}
	return simIONS, calls
}

// reopen closes and reopens the store, then checks that every acknowledged
// trajectory survived: the row count, and an object query for each probe.
// It returns the time to close and reopen.
func (r *runner) reopen(dir string, want int64, probe []*model.Trajectory, out *outcome) (time.Duration, error) {
	t0 := time.Now()
	if err := r.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	db, err := openDB(dir, r.spec)
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	took := time.Since(t0)
	r.db, r.h = db, httpapi.New(db)
	out.attempted++
	if got := r.db.Len(); got != want {
		out.fail("after reopen: %d trajectories, want %d", got, want)
	}
	for i, t := range probe {
		tr := t.TimeRange()
		o := op{kind: opObject, method: http.MethodGet, oid: t.OID, tr: tr,
			target: fmt.Sprintf("/query/object?oid=%s&start=%d&end=%d", t.OID, tr.Start, tr.End)}
		sp, body := r.do(o.request("probe-"+strconv.Itoa(i)), "object", t0)
		out.attempted++
		var resp httpapi.QueryResponse
		if !sp.ok() || json.Unmarshal(body, &resp) != nil {
			out.fail("probe %s: status %d %s", t.TID, sp.Status, sp.Err)
			continue
		}
		found := false
		for _, got := range resp.Trajectories {
			found = found || got.TID == t.TID
		}
		if !found {
			out.fail("acknowledged trajectory %s lost after reopen", t.TID)
		}
	}
	return took, nil
}

// spread picks n items evenly across ts, the last one included.
func spread(ts []*model.Trajectory, n int) []*model.Trajectory {
	var out []*model.Trajectory
	for i := 1; i <= n && len(ts) > 0; i++ {
		out = append(out, ts[i*len(ts)/n-1])
	}
	return out
}

// userBytes is the raw size of the data: 24 bytes per point plus the ids.
func userBytes(ts []*model.Trajectory) int64 {
	var n int64
	for _, t := range ts {
		n += int64(24*len(t.Points) + len(t.OID) + len(t.TID))
	}
	return n
}

func run(cfg config) (*outcome, map[string]any, error) {
	spec := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, err
	}
	base, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(base)

	genStart := time.Now()
	ds := workload.TLorrySim(preloadN, cfg.seed)
	fresh := &workload.Dataset{}
	if spec.ingest {
		fresh = freshTrajectories(ingestN, cfg.seed+1)
	}
	genS := time.Since(genStart).Seconds()

	mix := fullMix
	if spec.ingest {
		mix = rangeMix
	}
	blockOps := 0
	for _, w := range mix {
		blockOps += w
	}
	ops := drawOps(ds, mix, opListLen, cfg.seed+2)
	warm := drawOps(ds, mix, 1, cfg.seed+3)
	preBodies, preCounts := batches(ds.Trajs, preloadBatch)
	inBodies, inCounts := batches(fresh.Trajs, ingestBatch)

	r := &runner{cfg: cfg, spec: spec}
	out := &outcome{values: map[string]float64{}}
	var (
		perRound          = map[string][]float64{} // wall-clock metrics, one value per round
		ph                phase
		simIONS, replayIO int64
		replayCalls, next int
		spaceAmp          float64
		tf                traceFile
		meta              = hostMeta()
	)
	slice := time.Duration(cfg.seconds) * time.Second / rounds
	for round := 0; round < rounds; round++ {
		last := round == rounds-1
		dir := filepath.Join(base, "db"+strconv.Itoa(round))
		// Each set-up and each slice start from a collected heap, so garbage
		// from the previous step is not charged to the next one.
		runtime.GC()
		d, spans, err := r.setup(dir, preBodies, preCounts, warm)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d set-up: %w", round, err)
		}
		perRound["setup_s"] = append(perRound["setup_s"], d.Seconds())
		store := r.db.Engine().Store()
		if last {
			meta["run_bytes_after_setup"] = store.ResidentRunBytes()
		}

		runtime.GC()
		tr := newTracer(r, dir, cfg.trace && last)
		before := tr.snapshot()
		var rp phase
		if spec.ingest {
			rp = r.mixedPhase(ops[next:], inBodies, inCounts)
			store.Quiesce()
		} else {
			rp = r.queryPhase(ops[next:], slice)
		}
		after := tr.stop()
		next += len(rp.queries)
		ph.add(rp)
		// The query workloads' only ingest is the preload.
		ingest, acked := spans, preloadN
		ingestWall := time.Duration(spans[len(spans)-1].EndNS - spans[0].StartNS)
		if spec.ingest {
			ingest, acked, ingestWall = rp.writes, rp.acked, rp.wall
		}
		lat, ing := spanMillis(rp.queries), spanMillis(ingest)
		for k, x := range map[string]float64{
			"query_ops_per_s":   float64(len(rp.queries)) / rp.wall.Seconds(),
			"query_p50_ms":      percentile(lat, 0.50),
			"ingest_traj_per_s": float64(acked) / ingestWall.Seconds(),
			"ingest_p50_ms":     percentile(ing, 0.50),
		} {
			perRound[k] = append(perRound[k], x)
		}
		simIONS += after.Store.SimIONanos - before.Store.SimIONanos
		for _, sp := range append(rp.queries, rp.writes...) {
			out.attempted++
			if !sp.ok() {
				out.fail("%s %s: status %d partial %v %s", sp.Kind, sp.ReqID, sp.Status, sp.Head.Partial, sp.Err)
			}
		}
		stored := append(append([]*model.Trajectory{}, ds.Trajs...), fresh.Trajs[:rp.acked]...)
		if last {
			spaceAmp = float64(store.ResidentRunBytes()) / float64(userBytes(stored))
			replayIO, replayCalls = r.replay(ops, replayBlocks*blockOps, newOracle(lorryBoundary, stored), out)
			tf = traceFile{
				Workload: cfg.workload, Seed: cfg.seed, GenS: genS,
				Spans: append(rp.queries, rp.writes...), Before: before, After: after,
				CompactQueueMax: tr.queueMax(), UserBytesIngested: userBytes(fresh.Trajs[:rp.acked]),
			}
			for k, x := range map[string]any{
				"block_hit_rate": ratio(float64(after.Store.BlockCacheHits-before.Store.BlockCacheHits),
					float64(after.Store.BlockCacheHits+after.Store.BlockCacheMisses-before.Store.BlockCacheHits-before.Store.BlockCacheMisses)),
				"flushes":     after.Store.Flushes - before.Store.Flushes,
				"compactions": after.Store.Compactions - before.Store.Compactions,
				"splits":      after.Store.RegionSplits - before.Store.RegionSplits,
				"user_bytes":  userBytes(stored),
			} {
				meta[k] = x
			}
		}

		probe := spread(ds.Trajs, probes)
		if spec.ingest {
			probe = spread(fresh.Trajs[:rp.acked], probes)
		}
		took, err := r.reopen(dir, int64(len(stored)), probe, out)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", round, err)
		}
		perRound["recovery_s"] = append(perRound["recovery_s"], took.Seconds())
		if err := r.db.Close(); err != nil {
			return nil, nil, fmt.Errorf("round %d close: %w", round, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}

	v := out.values
	if cfg.trace {
		path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeTrace(path, &tf); err != nil {
			return nil, nil, err
		}
		layers, err := perLayerFromFile(path)
		if err != nil {
			return nil, nil, err
		}
		for k, x := range layers {
			v[k] = x
		}
	} else {
		for k, xs := range perRound {
			v[k] = median(append([]float64(nil), xs...))
		}
		if spec.ingest {
			// The writer's charges would swamp the reader's during the
			// phase, so the reader's I/O is read from the idle replay.
			v["model_io_ms_per_query"] = float64(replayIO) / 1e6 / float64(replayCalls)
		} else {
			v["model_io_ms_per_query"] = float64(simIONS) / 1e6 / float64(len(ph.queries))
		}
		v["peak_rss_mb"] = peakRSSMB()
		v["space_amp"] = spaceAmp
	}

	cacheBytes := spec.cacheBytes
	if cacheBytes == 0 {
		cacheBytes = 32 << 20
	}
	for k, x := range map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"preload_trajectories": len(ds.Trajs), "ingest_trajectories_per_round": len(fresh.Trajs),
		"block_cache_bytes": cacheBytes, "queries": len(ph.queries), "ingest_batches": len(ph.writes),
		"phase_s": ph.wall.Seconds(), "per_round": perRound,
		"host.gen_s": genS,
	} {
		meta[k] = x
	}
	return out, meta, nil
}

func spanMillis(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i := range spans {
		out[i] = spans[i].ms()
	}
	return out
}
