package geom

import "math"

// Clearance primitives: how far a covered point (NNV's ‖q, e_s‖,
// DESIGN.md §9.2) or rectangle (safe-region maintenance, §15) may
// translate before it can escape a union of verified regions, and how
// much margin a contained rectangle has inside a single outer
// rectangle. All are exact rectilinear computations —
// the segments produced by RectUnion.Boundary are axis-parallel, so
// every distance reduces to per-axis interval gaps.

// SegmentRectDist returns the minimum Euclidean distance between the
// axis-parallel segment s and the closed rectangle r (zero when they
// intersect). For an axis-parallel segment the bounding box IS the
// segment, so the box-to-box gap distance is exact.
func SegmentRectDist(s Segment, r Rect) float64 {
	sMinX, sMaxX := math.Min(s.A.X, s.B.X), math.Max(s.A.X, s.B.X)
	sMinY, sMaxY := math.Min(s.A.Y, s.B.Y), math.Max(s.A.Y, s.B.Y)
	dx := math.Max(0, math.Max(r.Min.X-sMaxX, sMinX-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-sMaxY, sMinY-r.Max.Y))
	return math.Hypot(dx, dy)
}

// Clearance returns the distance from p to the union boundary when p lies
// inside the union, and ok=false (with zero distance) otherwise. This is
// exactly the quantity Lemma 3.1 verifies candidates against: any POI
// closer to p than its clearance is a guaranteed true nearest neighbor.
// It is ClearanceWithin with no cap.
func (u *RectUnion) Clearance(p Point) (float64, bool) {
	return u.ClearanceWithin(p, math.Inf(1))
}

// ClearanceWithin returns min(‖p, ∂U‖, limit) when p lies inside the
// union, and ok=false (with zero distance) otherwise. The uncapped part
// is the same float64 as the minimum of Segment.Dist over Boundary(),
// but only the member edges that can come within min(clearance, limit)
// of p have their boundary pieces built (see clearanceWalk), so a caller
// that compares the clearance only against distances up to some bound
// pays for the union's boundary near p, not for all of it.
func (u *RectUnion) ClearanceWithin(p Point, limit float64) (float64, bool) {
	if !u.Contains(p) {
		return 0, false
	}
	return u.clearanceWalk(Rect{p, p}, true, limit), true
}

// ClearanceRect returns the minimum distance from the rectangle w to the
// boundary of the union, and whether the union covers w. It is the
// rectangle analogue of Clearance: when ok, every translation of w by a
// vector shorter than the returned distance is still covered by the
// union (any escaping point would trace a path from a covered point of w
// across the boundary in under the clearance, contradicting the boundary
// being at least that far from w). When the union does not cover w the
// distance is meaningless and ok is false. The distance is the minimum
// of SegmentRectDist over Boundary(), found by the same edge walk as
// Clearance.
func (u *RectUnion) ClearanceRect(w Rect) (float64, bool) {
	if !u.CoversRect(w) {
		return 0, false
	}
	return u.clearanceWalk(w, false, math.Inf(1)), true
}

// clearanceEdge is one member edge queued by clearanceWalk.
type clearanceEdge struct {
	lb   float64 // SegmentRectDist from the whole member edge to the query
	rect int32   // member index
	side int32   // sideBottom..sideRight
}

// clearanceSlack scales the walk's cut-off slack ε (see clearanceWalk).
const clearanceSlack = 1e-9

// clearanceWalk returns min(limit, d) where d is the minimum over the
// union's boundary pieces of s.Dist(w.Min) (point=true, w degenerate) or
// SegmentRectDist(s, w) (point=false). Every boundary piece lies on one
// member edge, so the distance from the query to the whole edge lower-
// bounds the distance to each of its pieces. The walk visits member edges
// in ascending order of that bound and builds an edge's pieces only while
// the bound is at most min(best, limit) + ε; no unvisited edge can then
// hold a piece nearer than best.
//
// ε covers rounding. The bound's clamped gaps are exact, but
// Segment.Dist projects p onto the piece through t = (ap·ab)/|ab|² and
// A + t·ab, whose rounding can move the computed foot point a few ulps of
// the coordinates' magnitude towards p and so report a distance that
// slightly undercuts the bound; math.Hypot, which both use, is itself
// only monotone to within an ulp. ε = 1e-9·(1 + the largest
// coordinate magnitude of the union) is many orders of magnitude above
// those errors, so the walk returns the same float64 as the full scan; it
// only costs the occasional extra edge whose bound sits just above best.
//
// The walk neither builds nor reads the boundary cache or its strip
// index, and its scratch (u.edges, u.pieces) is reused across calls.
func (u *RectUnion) clearanceWalk(w Rect, point bool, limit float64) float64 {
	scale := 0.0
	for _, r := range u.rects {
		scale = max(scale, math.Abs(r.Min.X), math.Abs(r.Min.Y), math.Abs(r.Max.X), math.Abs(r.Max.Y))
	}
	eps := clearanceSlack * (1 + scale)

	h := u.edges[:0]
	for i, r := range u.rects {
		for side := sideBottom; side <= sideRight; side++ {
			level, lo, hi := r.sideSpan(side)
			if lb := SegmentRectDist(piece(lo, hi, level, side <= sideTop), w); lb <= limit+eps {
				h = append(h, clearanceEdge{lb, int32(i), int32(side)})
			}
		}
	}
	u.edges = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownEdges(h, i)
	}

	best := limit
	for len(h) > 0 && h[0].lb <= best+eps {
		e := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDownEdges(h, 0)
		u.pieces = u.appendEdgePieces(u.pieces[:0], int(e.rect), int(e.side))
		for _, s := range u.pieces {
			var d float64
			if point {
				d = s.Dist(w.Min)
			} else {
				d = SegmentRectDist(s, w)
			}
			if d < best {
				best = d
			}
		}
	}
	return best
}

// siftDownEdges restores the min-heap order on lb below index i.
func siftDownEdges(h []clearanceEdge, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].lb < h[m].lb {
			m = r
		}
		if h[m].lb >= h[i].lb {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// InnerGap returns the smallest margin between the boundary of the inner
// rectangle s and the boundary of r when r contains s, i.e. how far s
// may translate in any direction while staying inside r. Negative when s
// sticks out of r on some side.
func (r Rect) InnerGap(s Rect) float64 {
	return math.Min(
		math.Min(s.Min.X-r.Min.X, r.Max.X-s.Max.X),
		math.Min(s.Min.Y-r.Min.Y, r.Max.Y-s.Max.Y),
	)
}
