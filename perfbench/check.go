package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/tman-db/tman/internal/geo"
	"github.com/tman-db/tman/internal/httpapi"
	"github.com/tman-db/tman/internal/model"
	"github.com/tman-db/tman/internal/similarity"
)

// oracle answers queries by scanning the generated data, the reference the
// server's answers are checked against.
type oracle struct {
	trajs []*model.Trajectory
	byTID map[string]*model.Trajectory
	space *geo.Space
}

func newOracle(boundary geo.Rect, sets ...[]*model.Trajectory) *oracle {
	o := &oracle{byTID: make(map[string]*model.Trajectory), space: geo.MustSpace(boundary)}
	for _, set := range sets {
		for _, t := range set {
			o.trajs = append(o.trajs, t)
			o.byTID[t.TID] = t
		}
	}
	return o
}

// matches reports whether t belongs in the answer of range op q.
func matches(q *op, t *model.Trajectory) bool {
	switch q.kind {
	case opTime:
		return t.TimeRange().Intersects(q.tr)
	case opSpace:
		return t.IntersectsRect(q.rect)
	case opSpaceTime:
		return t.TimeRange().Intersects(q.tr) && t.IntersectsRect(q.rect)
	case opObject:
		return t.OID == q.oid && t.TimeRange().Intersects(q.tr)
	}
	panic("matches: not a range op")
}

// check compares a response with the brute-force answer. Range types must
// return exactly the expected TID set; nearest and similar must return k
// distinct stored trajectories whose farthest member is as close as the
// k-th closest trajectory in the data.
func (o *oracle) check(q *op, resp *httpapi.QueryResponse) error {
	got := make(map[string]bool, len(resp.Trajectories))
	for _, t := range resp.Trajectories {
		if got[t.TID] {
			return fmt.Errorf("duplicate TID %s", t.TID)
		}
		if o.byTID[t.TID] == nil {
			return fmt.Errorf("TID %s is not in the data", t.TID)
		}
		got[t.TID] = true
	}
	if resp.Count != len(resp.Trajectories) {
		return fmt.Errorf("count %d but %d trajectories", resp.Count, len(resp.Trajectories))
	}
	switch q.kind {
	case opNearest, opSimilar:
		return o.checkKNN(q, resp)
	}
	want := 0
	for _, t := range o.trajs {
		if !matches(q, t) {
			continue
		}
		want++
		if !got[t.TID] {
			return fmt.Errorf("missing %s", t.TID)
		}
	}
	if want != len(got) {
		return fmt.Errorf("returned %d trajectories, want %d", len(got), want)
	}
	return nil
}

func (o *oracle) checkKNN(q *op, resp *httpapi.QueryResponse) error {
	var all []float64
	for _, t := range o.trajs {
		if q.kind == opSimilar && t.TID == q.query.TID {
			continue // the engine excludes the query itself
		}
		all = append(all, o.distance(q, t))
	}
	sort.Float64s(all)
	k := nearestK
	if q.kind == opSimilar {
		k = similarK
	}
	if k > len(all) {
		k = len(all)
	}
	if len(resp.Trajectories) != k {
		return fmt.Errorf("returned %d trajectories, want %d", len(resp.Trajectories), k)
	}
	if k == 0 {
		return nil
	}
	worst := 0.0
	for _, t := range resp.Trajectories {
		if q.kind == opSimilar && t.TID == q.query.TID {
			return fmt.Errorf("returned the query trajectory %s", t.TID)
		}
		worst = math.Max(worst, o.distance(q, o.byTID[t.TID]))
	}
	if kth := all[k-1]; math.Abs(worst-kth) > 1e-9*math.Max(1, kth) {
		return fmt.Errorf("k-th distance %.12g, brute force %.12g", worst, kth)
	}
	return nil
}

// distance mirrors the engine's definitions on normalised coordinates:
// nearest is the point-to-polyline distance, similar the Fréchet distance.
func (o *oracle) distance(q *op, t *model.Trajectory) float64 {
	if q.kind == opSimilar {
		return similarity.Distance(similarity.Frechet, o.normalize(q.query.Points), o.normalize(t.Points))
	}
	nx, ny := o.space.Normalize(q.x, q.y)
	pts := o.normalize(t.Points)
	if len(pts) == 1 {
		return math.Hypot(nx-pts[0].X, ny-pts[0].Y)
	}
	best := math.Inf(1)
	for i := 1; i < len(pts); i++ {
		s := geo.Segment{X1: pts[i-1].X, Y1: pts[i-1].Y, X2: pts[i].X, Y2: pts[i].Y}
		best = math.Min(best, geo.PointSegmentDist(nx, ny, s))
	}
	return best
}

func (o *oracle) normalize(pts []model.Point) []model.Point {
	out := make([]model.Point, len(pts))
	for i, p := range pts {
		x, y := o.space.Normalize(p.X, p.Y)
		out[i] = model.Point{X: x, Y: y, T: p.T}
	}
	return out
}
