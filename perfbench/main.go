// Command perfbench is TMan's benchmark. It generates a Lorry-like dataset
// from a seed, serves it with httpapi.New(db) in the same process, and sends
// every operation through the handler's ServeHTTP with a response recorder —
// HTTP parsing and JSON work, the engine, the index, the caches and the
// kvstore, with no socket in between. Clients run a closed loop. Run it from
// the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload query-hot --seed 1 --seconds 15 --trace 0
//
// Workloads (their measured sizes are recorded in BENCHMARK.json):
//
//	query-hot     40k trajectories bulk-loaded through PUT and compacted into
//	              runs that fit the default 32 MiB block cache; one client
//	              runs the six query types. The CPU-bound serving path does
//	              nearly all the work.
//	query-cold    the same with the block cache capped at 8 MiB, so block
//	              fetch, decode and fence pruning show up here and not there.
//	ingest-mixed  the same preload, then one writer PUTs 500 batches of 40
//	              fresh trajectories while one reader runs the four range
//	              query types: JSON ingest, the memtable, WAL group commit,
//	              flush, compaction and splits, with background work raising
//	              read latency.
//
// A run is three rounds. Each sets up a fresh durable store, runs a third of
// the measured phase on it (--seconds in total for the query workloads; the
// writer's 500 batches on ingest-mixed), then closes and reopens it and looks
// up acknowledged trajectories. After the last round's phase, a fixed sample
// of each query type is re-issued and checked against a brute-force scan of
// the generated data. A wrong answer or a lost acknowledged write fails the
// run.
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics. With --trace 1 the last round's phase is traced — a
// span around every handler call and counter snapshots around the phase,
// written to one trace file — and the per-layer metrics are computed from
// that file. The line before the result carries the run's host metadata.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricDef names one reported metric; the tables below are the single
// declaration the printer, BENCHMARK.json and the tests agree on.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_ops_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"model_io_ms_per_query", "ms"},
	{"ingest_traj_per_s", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"recovery_s", "s"},
	{"peak_rss_mb", "MB"},
	{"space_amp", "ratio"},
}

var perLayer = []metricDef{
	{"traced.query_p50_ms", "ms"},
	{"traced.query_p99_ms", "ms"},
	{"httpapi.self_ms_p50", "ms"},
	{"httpapi.resp_kb_per_query", "kB"},
	{"engine.wall_ms_p50.time", "ms"},
	{"engine.wall_ms_p50.space", "ms"},
	{"engine.wall_ms_p50.spacetime", "ms"},
	{"engine.wall_ms_p50.object", "ms"},
	{"engine.wall_ms_p50.similar", "ms"},
	{"engine.wall_ms_p50.nearest", "ms"},
	{"engine.candidates_per_result", "ratio"},
	{"engine.reencodes", "count"},
	{"engine.plan_hit_rate", "ratio"},
	{"cache.index_hit_rate", "ratio"},
	{"cache.dir_loads_per_query", "count"},
	{"cache.block_hit_rate", "ratio"},
	{"cache.block_evictions_per_query", "count"},
	{"kvstore.rows_scanned_per_query", "count"},
	{"kvstore.seeks_per_query", "count"},
	{"kvstore.rpcs_per_query", "count"},
	{"kvstore.block_read_kb_per_query", "kB"},
	{"kvstore.fence_skip_frac", "ratio"},
	{"kvstore.write_amp", "ratio"},
	{"kvstore.wal_bytes_per_user_byte", "ratio"},
	{"kvstore.flushes", "count"},
	{"kvstore.compactions", "count"},
	{"kvstore.region_splits", "count"},
	{"kvstore.compact_stall_ms", "ms"},
	{"kvstore.bg_busy_s", "s"},
	{"kvstore.compact_queue_max", "count"},
	{"similarity.candidates_per_query", "count"},
	{"runtime.alloc_kb_per_op", "kB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.gen_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render picks the declared metrics out of values, so a metric the run did
// not compute is an error instead of a silent omission.
func render(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "query-hot | query-cold | ingest-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the data and the op lists")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured seconds per run of the query workloads, split over the rounds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench-work", "directory for data directories and trace files")
	flag.Parse()
	cfg.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	out, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics, err := render(defs, out.values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	line, err := json.Marshal(map[string]any{"meta": meta})
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, msg := range out.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
		}
		os.Exit(1)
	}
}
