package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	tman "github.com/tman-db/tman"
	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/workload"
)

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75}, // statistics.quantiles(method="inclusive")
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
}

func TestRatioOfZeroIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
}

func TestParseHeadSkipsTrajectories(t *testing.T) {
	body := []byte(`{"count":2,"plan":"x","candidates":9,"elapsed_ms":1.5,"partial":true,"retried_rpcs":0,"failed_regions":0,"trajectories":[{"oid":"a"}]}` + "\n")
	h, err := parseHead(body)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 2 || h.Candidates != 9 || h.ElapsedMs != 1.5 || !h.Partial {
		t.Errorf("parseHead = %+v", h)
	}
	h, err = parseHead([]byte(`{"stored":40,"total":80}`))
	if err != nil || h.Stored != 40 {
		t.Errorf("parseHead(ingest) = %+v, %v", h, err)
	}
}

func TestSameSeedGivesIdenticalOpList(t *testing.T) {
	ds := workload.TLorrySim(500, 3)
	encode := func(ops []op) []byte {
		var b bytes.Buffer
		for _, o := range ops {
			b.WriteString(o.method + " " + o.target + "\n")
			b.Write(o.body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	a := encode(drawOps(ds, fullMix, 400, 7))
	if b := encode(drawOps(ds, fullMix, 400, 7)); !bytes.Equal(a, b) {
		t.Fatal("same seed gave different op lists")
	}
	if c := encode(drawOps(ds, fullMix, 400, 8)); bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same op list")
	}
}

func TestEveryBlockHoldsTheMixExactly(t *testing.T) {
	ds := workload.TLorrySim(200, 1)
	ops := drawOps(ds, fullMix, 3*85, 5)
	if len(ops) != 3*85 {
		t.Fatalf("drew %d ops, want %d", len(ops), 3*85)
	}
	for b := 0; b < 3; b++ {
		var got [numKinds]int
		for _, o := range ops[b*85 : (b+1)*85] {
			got[o.kind]++
		}
		if got != fullMix {
			t.Errorf("block %d holds %v, want %v", b, got, fullMix)
		}
	}
}

// tiny is a hand-made dataset on the Lorry boundary.
func tiny() []*model.Trajectory {
	traj := func(oid, tid string, pts ...model.Point) *model.Trajectory {
		return &model.Trajectory{OID: oid, TID: tid, Points: pts}
	}
	return []*model.Trajectory{
		traj("o1", "a", model.Point{X: 100, Y: 20, T: 1000}, model.Point{X: 101, Y: 20, T: 2000}),
		traj("o1", "b", model.Point{X: 110, Y: 30, T: 5000}, model.Point{X: 110, Y: 31, T: 6000}),
		traj("o2", "c", model.Point{X: 100, Y: 19, T: 1500}, model.Point{X: 102, Y: 21, T: 2500}),
		traj("o2", "d", model.Point{X: 120, Y: 40, T: 9000}, model.Point{X: 121, Y: 41, T: 9500}),
	}
}

func response(ts ...*model.Trajectory) *httpapi.QueryResponse {
	r := &httpapi.QueryResponse{Count: len(ts)}
	for _, t := range ts {
		r.Trajectories = append(r.Trajectories, toJSON(t))
	}
	return r
}

func TestOracleChecksRangeAnswersByTIDSet(t *testing.T) {
	ts := tiny()
	orc := newOracle(lorryBoundary, ts)
	a, b, c, d := ts[0], ts[1], ts[2], ts[3]
	cases := []struct {
		name  string
		q     op
		want  []*model.Trajectory
		extra *model.Trajectory // a trajectory outside the answer
	}{
		{"time", op{kind: opTime, tr: model.TimeRange{Start: 1800, End: 5500}}, []*model.Trajectory{a, b, c}, d},
		{"space", op{kind: opSpace, rect: geo.Rect{MinX: 100.5, MinY: 19.5, MaxX: 100.6, MaxY: 20.5}}, []*model.Trajectory{a, c}, b},
		{"spacetime", op{kind: opSpaceTime, rect: geo.Rect{MinX: 99, MinY: 18, MaxX: 103, MaxY: 22}, tr: model.TimeRange{Start: 2100, End: 3000}}, []*model.Trajectory{c}, a},
		{"object", op{kind: opObject, oid: "o2", tr: model.TimeRange{Start: 0, End: 9200}}, []*model.Trajectory{c, d}, b},
	}
	for _, tc := range cases {
		if err := orc.check(&tc.q, response(tc.want...)); err != nil {
			t.Errorf("%s: exact answer rejected: %v", tc.name, err)
		}
		if err := orc.check(&tc.q, response(tc.want[1:]...)); err == nil {
			t.Errorf("%s: answer missing %s accepted", tc.name, tc.want[0].TID)
		}
		if err := orc.check(&tc.q, response(append(tc.want, tc.extra)...)); err == nil {
			t.Errorf("%s: answer with extra %s accepted", tc.name, tc.extra.TID)
		}
	}
	dup := op{kind: opObject, oid: "o1", tr: model.TimeRange{Start: 0, End: 9999}}
	if err := orc.check(&dup, response(a, a, b)); err == nil {
		t.Error("duplicate TIDs accepted")
	}
}

func TestOracleChecksNearestByKthDistance(t *testing.T) {
	ts := tiny()
	// Pad to more than k trajectories, spaced out eastwards from (100, 20).
	for i := 0; i < nearestK; i++ {
		x := 103 + float64(i)
		ts = append(ts, &model.Trajectory{OID: "o3", TID: "e" + string(rune('0'+i)),
			Points: []model.Point{{X: x, Y: 20, T: 1}, {X: x, Y: 20.5, T: 2}}})
	}
	orc := newOracle(lorryBoundary, ts)
	q := op{kind: opNearest, x: 100, y: 20}
	// The nearest 8: a passes through the point, c comes within a degree,
	// then e0..e5.
	best := append([]*model.Trajectory{ts[0], ts[2]}, ts[4:10]...)
	if err := orc.check(&q, response(best...)); err != nil {
		t.Fatalf("exact nearest answer rejected: %v", err)
	}
	worse := append(append([]*model.Trajectory{}, best[:7]...), ts[11])
	if err := orc.check(&q, response(worse...)); err == nil {
		t.Error("nearest answer with a farther k-th trajectory accepted")
	}
	if err := orc.check(&q, response(best[:7]...)); err == nil {
		t.Error("nearest answer with fewer than k trajectories accepted")
	}
}

func TestOracleChecksSimilarExcludingTheQuery(t *testing.T) {
	ts := tiny()
	orc := newOracle(lorryBoundary, ts)
	// With the query excluded only three trajectories remain, fewer than k.
	q := op{kind: opSimilar, query: ts[0]}
	if err := orc.check(&q, response(ts[1], ts[2], ts[3])); err != nil {
		t.Fatalf("similar answer rejected: %v", err)
	}
	if err := orc.check(&q, response(ts[0], ts[1], ts[3])); err == nil {
		t.Error("similar answer containing the query accepted")
	}
}

// TestOracleAgreesWithTheServer runs drawn ops of every type against a small
// database through the handler and checks every answer.
func TestOracleAgreesWithTheServer(t *testing.T) {
	ds := workload.TLorrySim(600, 9)
	db, err := tman.Open(lorryBoundary, tman.WithShards(4), tman.WithShapeGrid(3, 3, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	h := httpapi.New(db)
	bodies, _ := batches(ds.Trajs, preloadBatch)
	for _, b := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/trajectories", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("preload: %d %s", rec.Code, rec.Body)
		}
	}
	orc := newOracle(lorryBoundary, ds.Trajs)
	for i, o := range drawOps(ds, fullMix, 85, 4) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, o.request("t"))
		var resp httpapi.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("op %d %s: %d %v", i, o.target, rec.Code, err)
		}
		if err := orc.check(&o, &resp); err != nil {
			t.Errorf("op %d %s: %v", i, o.target, err)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON pins the declared metrics, names and
// units, to BENCHMARK.json, and checks that each is computed and printed.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics declared, %d in BENCHMARK.json", what, len(defs), len(listed))
			return
		}
		for i := range defs {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: declared %v, BENCHMARK.json has %v", what, i, defs[i], listed[i])
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)

	tf := &traceFile{Spans: []span{
		{Kind: "time", EndNS: 2e6, Bytes: 2048, Status: 200, Head: respHead{Count: 2, Candidates: 8, ElapsedMs: 1.5}, SimIONS: 0.5e6},
		{Kind: "ingest", EndNS: 1e6, Status: 200},
	}}
	tf.After.Store.BlockCacheHits, tf.After.Store.BlockCacheMisses = 3, 1
	layers := perLayerMetrics(tf)
	metrics, err := render(perLayer, layers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if metrics[d.name].Unit != d.unit {
			t.Errorf("%s printed with unit %q, want %q", d.name, metrics[d.name].Unit, d.unit)
		}
	}
	for name, want := range map[string]float64{
		"httpapi.self_ms_p50":          1, // 2 ms handler − (1.5 − 0.5) ms engine wall
		"engine.wall_ms_p50.time":      1,
		"engine.candidates_per_result": 4,
		"cache.block_hit_rate":         0.75,
		"httpapi.resp_kb_per_query":    2,
	} {
		if got := layers[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	e2e := map[string]float64{}
	for _, d := range endToEnd {
		e2e[d.name] = 1
	}
	if _, err := render(endToEnd, e2e); err != nil {
		t.Error(err)
	}
	delete(e2e, endToEnd[0].name)
	if _, err := render(endToEnd, e2e); err == nil || !strings.Contains(err.Error(), endToEnd[0].name) {
		t.Errorf("missing metric not reported: %v", err)
	}
}

// TestMixedPhaseAndReopenOnASmallStore runs the ingest-mixed phase and the
// durability check end to end on a small durable store.
func TestMixedPhaseAndReopenOnASmallStore(t *testing.T) {
	ds := workload.TLorrySim(400, 2)
	fresh := freshTrajectories(800, 3)
	r := &runner{cfg: config{trace: true}, spec: workloads["ingest-mixed"]}
	dir := t.TempDir()
	bodies, counts := batches(ds.Trajs, preloadBatch)
	if _, _, err := r.setup(dir, bodies, counts, drawOps(ds, rangeMix, 1, 1)); err != nil {
		t.Fatal(err)
	}
	inBodies, inCounts := batches(fresh.Trajs, ingestBatch)
	ph := r.mixedPhase(drawOps(ds, rangeMix, 650, 2), inBodies, inCounts)
	r.db.Engine().Store().Quiesce()
	if ph.acked != len(fresh.Trajs) || len(ph.writes) != len(inBodies) {
		t.Fatalf("acked %d of %d in %d batches", ph.acked, len(fresh.Trajs), len(ph.writes))
	}
	for _, sp := range append(ph.queries, ph.writes...) {
		if !sp.ok() {
			t.Fatalf("%s %s failed: %d %s", sp.Kind, sp.ReqID, sp.Status, sp.Err)
		}
	}
	out := &outcome{}
	stored := append(append([]*model.Trajectory{}, ds.Trajs...), fresh.Trajs...)
	if _, err := r.reopen(dir, int64(len(stored)), spread(fresh.Trajs, probes), out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("durability check failed: %v", out.failures)
	}
	// A trajectory that was never written must be reported lost.
	ghost := &model.Trajectory{OID: fresh.Trajs[0].OID, TID: "never-written", Points: fresh.Trajs[0].Points}
	if _, err := r.reopen(dir, int64(len(stored)), []*model.Trajectory{ghost}, out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 1 {
		t.Fatalf("lost write not detected: %d failures", out.failed)
	}
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
}
