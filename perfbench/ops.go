package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"

	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/workload"
)

// opKind is one of the six query types the benchmark issues.
type opKind int

const (
	opTime opKind = iota
	opSpace
	opSpaceTime
	opObject
	opSimilar
	opNearest
	numKinds
)

var kindNames = [numKinds]string{"time", "space", "spacetime", "object", "similar", "nearest"}

func (k opKind) String() string { return kindNames[k] }

// Query mix and shapes follow tman-loadgen with ingest left out. A block of
// ops holds each type exactly its weight times, shuffled, so the type counts
// of a run vary by less than one block between seeds.
var (
	fullMix  = [numKinds]int{20, 15, 15, 15, 5, 15}
	rangeMix = [numKinds]int{20, 15, 15, 15, 0, 0}
)

const (
	timeWindowMS   = 3600_000
	spaceSideKm    = 1.5
	stSideKm       = 2.5
	stWindowMS     = 6 * 3600_000
	objectWindowMS = 12 * 3600_000
	nearestSideKm  = 1.0
	nearestK       = 8
	similarK       = 5
)

// op is one query request together with the parameters the answer check
// needs. The request itself is rebuilt from method, target and body for
// every issue, so an op can be replayed.
type op struct {
	kind   opKind
	method string
	target string
	body   []byte

	tr    model.TimeRange
	rect  geo.Rect
	oid   string
	x, y  float64
	query *model.Trajectory
}

func (o *op) request(id string) *http.Request {
	req, err := http.NewRequest(o.method, o.target, bytes.NewReader(o.body))
	if err != nil {
		panic(fmt.Sprintf("op %s: %v", o.target, err))
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-Id", id)
	return req
}

// ff formats a float so that the server parses back exactly the value the
// answer check uses.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// drawOps draws n ops (rounded up to whole blocks) from ds with the given
// mix. The same dataset, mix, count and seed give the same ops.
func drawOps(ds *workload.Dataset, mix [numKinds]int, n int, seed int64) []op {
	s := workload.NewQuerySampler(ds, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var block []opKind
	for k, w := range mix {
		for i := 0; i < w; i++ {
			block = append(block, opKind(k))
		}
	}
	ops := make([]op, 0, n+len(block))
	for len(ops) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			ops = append(ops, newOp(k, s))
		}
	}
	return ops
}

func newOp(k opKind, s *workload.QuerySampler) op {
	o := op{kind: k, method: http.MethodGet}
	switch k {
	case opTime:
		o.tr = s.TimeWindow(timeWindowMS)
		o.target = fmt.Sprintf("/query/time?start=%d&end=%d", o.tr.Start, o.tr.End)
	case opSpace:
		o.rect = s.SpaceWindow(spaceSideKm)
		o.target = "/query/space?" + rectParams(o.rect)
	case opSpaceTime:
		o.rect = s.SpaceWindow(stSideKm)
		o.tr = s.TimeWindow(stWindowMS)
		o.target = fmt.Sprintf("/query/spacetime?%s&start=%d&end=%d", rectParams(o.rect), o.tr.Start, o.tr.End)
	case opObject:
		o.oid, o.tr = s.ObjectWindow(objectWindowMS)
		o.target = fmt.Sprintf("/query/object?oid=%s&start=%d&end=%d", o.oid, o.tr.Start, o.tr.End)
	case opSimilar:
		o.method = http.MethodPost
		o.query = s.QueryTrajectory()
		o.target = "/query/similar"
		body, err := json.Marshal(map[string]any{"query": toJSON(o.query), "measure": "frechet", "k": similarK})
		if err != nil {
			panic(err)
		}
		o.body = body
	case opNearest:
		r := s.SpaceWindow(nearestSideKm)
		o.x, o.y = (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
		o.target = fmt.Sprintf("/query/nearest?x=%s&y=%s&k=%d", ff(o.x), ff(o.y), nearestK)
	}
	return o
}

func rectParams(r geo.Rect) string {
	return fmt.Sprintf("minx=%s&miny=%s&maxx=%s&maxy=%s", ff(r.MinX), ff(r.MinY), ff(r.MaxX), ff(r.MaxY))
}

func toJSON(t *model.Trajectory) httpapi.TrajectoryJSON {
	tj := httpapi.TrajectoryJSON{OID: t.OID, TID: t.TID, Points: make([]httpapi.PointJSON, len(t.Points))}
	for i, p := range t.Points {
		tj.Points[i] = httpapi.PointJSON{X: p.X, Y: p.Y, T: p.T}
	}
	return tj
}

// ingestBody encodes one PUT /trajectories batch.
func ingestBody(ts []*model.Trajectory) []byte {
	payload := make([]httpapi.TrajectoryJSON, len(ts))
	for i, t := range ts {
		payload[i] = toJSON(t)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err)
	}
	return body
}

// freshTrajectories draws n trajectories for the in-run ingest stream. They
// come from another generator seed and get their own TID namespace, so every
// batch inserts new rows instead of overwriting preloaded ones.
func freshTrajectories(n int, seed int64) *workload.Dataset {
	ds := workload.TLorrySim(n, seed)
	for i, t := range ds.Trajs {
		t.TID = fmt.Sprintf("lorry-ingest-%07d", i)
	}
	return ds
}
