package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/tman-db/tman/internal/cache"
	"github.com/tman-db/tman/internal/engine"
	"github.com/tman-db/tman/internal/kvstore"
	"github.com/tman-db/tman/internal/obs"
)

// jobKinds are the background-job kinds whose ledgers the trace keeps.
var jobKinds = []string{"flush", "compact", "split"}

// snapshot is every counter the benchmark reads from outside the program,
// taken before and after the measured phase.
type snapshot struct {
	Store        kvstore.Snapshot            `json:"store"`
	Index        cache.CacheStats            `json:"index_cache"`
	Plan         engine.PlanCacheStats       `json:"plan_cache"`
	Block        cache.CacheStats            `json:"block_cache"`
	Jobs         map[string]obs.JobKindStats `json:"jobs"`
	Reencodes    int64                       `json:"reencodes"`
	WALBytes     int64                       `json:"wal_bytes"`
	TotalAlloc   uint64                      `json:"total_alloc"`
	NumGC        uint32                      `json:"num_gc"`
	PauseTotalNs uint64                      `json:"pause_total_ns"`
}

// traceFile is what a traced run writes; the per-layer metrics are computed
// from it alone.
type traceFile struct {
	Workload          string   `json:"workload"`
	Seed              int64    `json:"seed"`
	GenS              float64  `json:"host_gen_s"`
	Spans             []span   `json:"spans"`
	Before            snapshot `json:"before"`
	After             snapshot `json:"after"`
	CompactQueueMax   int64    `json:"compact_queue_max"`
	UserBytesIngested int64    `json:"user_bytes_ingested"`
}

// tracer takes the phase's snapshots and, in a traced run, samples the
// compaction queue depth while the phase runs.
type tracer struct {
	r     *runner
	dir   string
	stopc chan struct{}
	wg    sync.WaitGroup
	max   int64
}

// queueSampleEvery is how often a traced run reads the compaction queue depth.
const queueSampleEvery = 2 * time.Millisecond

func newTracer(r *runner, dir string, sample bool) *tracer {
	t := &tracer{r: r, dir: dir, stopc: make(chan struct{})}
	if sample {
		t.wg.Add(1)
		go t.sampleQueue()
	}
	return t
}

func (t *tracer) sampleQueue() {
	defer t.wg.Done()
	tick := time.NewTicker(queueSampleEvery)
	defer tick.Stop()
	store := t.r.db.Engine().Store()
	for {
		if d := store.CompactQueueDepth(); d > t.max {
			t.max = d
		}
		select {
		case <-t.stopc:
			return
		case <-tick.C:
		}
	}
}

// stop ends queue sampling and returns the after-phase snapshot.
func (t *tracer) stop() snapshot {
	close(t.stopc)
	t.wg.Wait()
	return t.snapshot()
}

// queueMax is the deepest compaction queue seen; valid after stop.
func (t *tracer) queueMax() int64 { return t.max }

func (t *tracer) snapshot() snapshot {
	e := t.r.db.Engine()
	s := snapshot{
		Store:     e.Store().Stats().Snapshot(),
		Index:     e.CacheStats(),
		Plan:      e.PlanCacheStats(),
		Block:     e.Store().BlockCacheStats(),
		Jobs:      map[string]obs.JobKindStats{},
		Reencodes: e.Reencodes(),
	}
	for _, k := range jobKinds {
		s.Jobs[k] = e.Jobs().KindStats(k)
	}
	if fi, err := os.Stat(filepath.Join(t.dir, "wal.log")); err == nil {
		s.WALBytes = fi.Size()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.TotalAlloc, s.NumGC, s.PauseTotalNs = ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	return s
}

func writeTrace(path string, tf *traceFile) error {
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func perLayerFromFile(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(buf, &tf); err != nil {
		return nil, err
	}
	return perLayerMetrics(&tf), nil
}

// perLayerMetrics computes the per-layer metrics of a trace. With one client
// and no background work (the query workloads) the per-op kvstore charges
// are exact; on ingest-mixed they include the writer's and the totals are
// the workload's.
func perLayerMetrics(tf *traceFile) map[string]float64 {
	v := map[string]float64{"host.gen_s": tf.GenS}
	var (
		lat, self                   []float64
		engineWall                  = map[string][]float64{}
		q, respBytes, cand, results float64
		knnCand, knnN               float64
	)
	for i := range tf.Spans {
		sp := &tf.Spans[i]
		if sp.Kind == "ingest" {
			continue
		}
		q++
		lat = append(lat, sp.ms())
		// The engine reports wall time plus the modelled I/O it charged.
		ew := sp.Head.ElapsedMs - float64(sp.SimIONS)/1e6
		engineWall[sp.Kind] = append(engineWall[sp.Kind], ew)
		self = append(self, sp.ms()-ew)
		respBytes += float64(sp.Bytes)
		cand += float64(sp.Head.Candidates)
		results += float64(sp.Head.Count)
		if sp.Kind == "similar" || sp.Kind == "nearest" {
			knnCand += float64(sp.Head.Candidates)
			knnN++
		}
	}
	v["traced.query_p50_ms"] = median(lat)
	// The tail of one traced round is a diagnostic only: the reader's p99
	// on ingest-mixed moves with CPU contention by up to a quarter between
	// runs of the same code, too much for a bounded end-to-end metric.
	v["traced.query_p99_ms"] = percentile(lat, 0.99)
	v["httpapi.self_ms_p50"] = median(self)
	v["httpapi.resp_kb_per_query"] = ratio(respBytes/1024, q)
	for _, k := range kindNames {
		v["engine.wall_ms_p50."+k] = median(engineWall[k])
	}
	v["engine.candidates_per_result"] = ratio(cand, results)
	v["similarity.candidates_per_query"] = ratio(knnCand, knnN)

	b, a := &tf.Before, &tf.After
	st := kvstore.Diff(b.Store, a.Store)
	v["engine.reencodes"] = float64(a.Reencodes - b.Reencodes)
	planHits, planMisses := a.Plan.Hits-b.Plan.Hits, a.Plan.Misses-b.Plan.Misses
	v["engine.plan_hit_rate"] = ratio(float64(planHits), float64(planHits+planMisses))
	idxHits, idxMisses := a.Index.Hits-b.Index.Hits, a.Index.Misses-b.Index.Misses
	v["cache.index_hit_rate"] = ratio(float64(idxHits), float64(idxHits+idxMisses))
	v["cache.dir_loads_per_query"] = ratio(float64(a.Index.DirLoads-b.Index.DirLoads), q)
	fetched := float64(st.BlockCacheHits + st.BlockCacheMisses)
	v["cache.block_hit_rate"] = ratio(float64(st.BlockCacheHits), fetched)
	v["cache.block_evictions_per_query"] = ratio(float64(a.Block.Evictions-b.Block.Evictions), q)
	v["kvstore.rows_scanned_per_query"] = ratio(float64(st.RowsScanned), q)
	v["kvstore.seeks_per_query"] = ratio(float64(st.Seeks), q)
	v["kvstore.rpcs_per_query"] = ratio(float64(st.RPCs), q)
	v["kvstore.block_read_kb_per_query"] = ratio(float64(st.BlockReadBytes)/1024, q)
	v["kvstore.fence_skip_frac"] = ratio(float64(st.BlocksSkipped), float64(st.BlocksSkipped)+fetched)
	v["kvstore.write_amp"] = ratio(float64(st.BytesCompacted), float64(st.BytesFlushed))
	v["kvstore.wal_bytes_per_user_byte"] = ratio(float64(a.WALBytes-b.WALBytes), float64(tf.UserBytesIngested))
	v["kvstore.flushes"] = float64(st.Flushes)
	v["kvstore.compactions"] = float64(st.Compactions)
	v["kvstore.region_splits"] = float64(st.RegionSplits)
	v["kvstore.compact_stall_ms"] = float64(st.CompactStallNanos) / 1e6
	var busy int64
	for _, k := range []string{"flush", "compact"} {
		busy += a.Jobs[k].TotalNanos - b.Jobs[k].TotalNanos
	}
	v["kvstore.bg_busy_s"] = float64(busy) / 1e9
	v["kvstore.compact_queue_max"] = float64(tf.CompactQueueMax)
	v["runtime.alloc_kb_per_op"] = ratio(float64(a.TotalAlloc-b.TotalAlloc)/1024, float64(len(tf.Spans)))
	v["runtime.gc_cycles"] = float64(a.NumGC - b.NumGC)
	v["runtime.gc_pause_ms"] = float64(a.PauseTotalNs-b.PauseTotalNs) / 1e6
	return v
}
