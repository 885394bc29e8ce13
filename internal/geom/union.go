package geom

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Index thresholds: unions smaller than these are scanned linearly (the
// index build cost would dominate); larger unions get strip-bucketed
// indexes so per-candidate queries prune instead of scanning everything.
const (
	boundaryIndexMin = 24 // boundary segments before BoundaryDist indexes
	disjointIndexMin = 24 // disjoint rects before IntersectCircleArea indexes
)

// RectUnion is a (possibly overlapping) collection of axis-aligned
// rectangles treated as their set union. It models the merged verified
// region (MVR) of the paper: the union of the verified-region MBRs
// returned by the peers of a querying mobile host.
//
// The zero value is the empty union. Derived data (disjoint
// decomposition, boundary segments, strip indexes) is computed lazily and
// cached; Add and Reset invalidate the caches but keep their allocated
// capacity, so a RectUnion reused via Reset reaches a zero-allocation
// steady state on the query hot path.
//
// Aliasing contract: slices returned by Rects, Disjoint, and Boundary
// point into the union's internal storage and are invalidated by the next
// Add or Reset. Callers that need the data across mutations must copy.
// RectUnion is not safe for concurrent use.
type RectUnion struct {
	rects []Rect

	// Lazily computed caches (valid when the matching have* flag is set;
	// the backing arrays are reused across Reset cycles).
	disjoint     []Rect    // disjoint decomposition of the union
	boundary     []Segment // boundary pieces of the union
	haveDisjoint bool
	haveBoundary bool

	// Strip-bucketed indexes over the caches above (built lazily on top
	// of them, invalidated together with them).
	boundIdx stripIndex // x-strips over boundary segments
	disjIdx  stripIndex // x-strips over disjoint rects

	// Reusable scratch for the cache builders and CoversRect.
	xs, ys []float64
	diff   []int32
	cov    []interval

	// Scratch for the query-local clearance walk (clearance.go): the
	// queued member edges and the boundary pieces of the edge in hand.
	// The walk never touches the boundary cache above.
	edges  []clearanceEdge
	pieces []Segment

	// Incremental-maintenance state (Insert/Remove, see
	// union_incremental.go). Kept separate from the xs/ys/diff scratch
	// above because CoversRect clobbers that scratch between repairs.
	// Valid only while incValid is set; Add and Reset drop it.
	incValid     bool
	incXs, incYs []float64 // sorted distinct member edge coordinates
	incXRef      []int32   // member-edge refcount per incXs entry
	incYRef      []int32   // member-edge refcount per incYs entry
	incDiff      []int32   // row-major grid: (len(incYs)-1) rows × len(incXs) cols
	incGrid2     []int32   // double buffer for row/column splices
	incEmit      []Rect    // re-emission scratch for repaired rows
}

// NewRectUnion builds a union from the given rectangles, dropping
// degenerate (zero-area) members.
func NewRectUnion(rects ...Rect) *RectUnion {
	u := &RectUnion{}
	for _, r := range rects {
		u.Add(r)
	}
	return u
}

// Reset empties the union for reuse, keeping every internal allocation
// (member storage, cache arrays, index buckets, scratch). This is the
// hot-path entry point: a per-client RectUnion is Reset once per query
// instead of reallocated.
func (u *RectUnion) Reset() {
	u.rects = u.rects[:0]
	u.invalidate()
}

func (u *RectUnion) invalidate() {
	u.haveDisjoint = false
	u.haveBoundary = false
	u.boundIdx.built = false
	u.disjIdx.built = false
	u.incValid = false
}

// Add inserts another rectangle into the union.
func (u *RectUnion) Add(r Rect) {
	if r.Empty() || !r.Valid() {
		return
	}
	u.rects = append(u.rects, r)
	u.invalidate()
}

// CopyFrom replaces u's members with a copy of src's, reusing u's
// storage. Derived caches are invalidated (they rebuild lazily); src is
// untouched.
func (u *RectUnion) CopyFrom(src *RectUnion) {
	u.rects = append(u.rects[:0], src.rects...)
	u.invalidate()
}

// Rects returns the member rectangles as provided (possibly overlapping).
// The returned slice must not be modified and is invalidated by Add or
// Reset.
func (u *RectUnion) Rects() []Rect { return u.rects }

// Len returns the number of member rectangles.
func (u *RectUnion) Len() int { return len(u.rects) }

// IsEmpty reports whether the union covers no area.
func (u *RectUnion) IsEmpty() bool { return len(u.rects) == 0 }

// Contains reports whether p lies in the closed union.
func (u *RectUnion) Contains(p Point) bool {
	for _, r := range u.rects {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// Bounds returns the MBR of the whole union; the second result is false
// for an empty union.
func (u *RectUnion) Bounds() (Rect, bool) {
	if len(u.rects) == 0 {
		return Rect{}, false
	}
	out := u.rects[0]
	for _, r := range u.rects[1:] {
		out = out.Union(r)
	}
	return out, true
}

// Area returns the exact area of the union.
func (u *RectUnion) Area() float64 {
	total := 0.0
	for _, r := range u.Disjoint() {
		total += r.Area()
	}
	return total
}

// Disjoint returns a decomposition of the union into pairwise disjoint
// rectangles (they may share edges but not interior points). The
// decomposition works on the compressed grid induced by all member
// coordinates: every member marks its covered cell range with a
// difference array, and a per-row prefix sum merges covered cells into
// horizontal strips. Total cost is O(n log n + n·rows + cells), which
// keeps the merged-verified-region math cheap even with a hundred peer
// regions per query. The returned slice is invalidated by Add or Reset.
func (u *RectUnion) Disjoint() []Rect {
	if len(u.rects) == 0 {
		return nil
	}
	if u.haveDisjoint {
		return u.disjoint
	}
	xs, ys := u.xs[:0], u.ys[:0]
	for _, r := range u.rects {
		xs = append(xs, r.Min.X, r.Max.X)
		ys = append(ys, r.Min.Y, r.Max.Y)
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)
	u.xs, u.ys = xs, ys
	nx, ny := len(xs)-1, len(ys)-1
	if nx <= 0 || ny <= 0 {
		u.disjoint = u.disjoint[:0]
		u.haveDisjoint = true
		return nil
	}

	// Per-row difference array over cell columns; rect coordinates are
	// exact members of xs/ys, so the index lookups are exact.
	n := ny * (nx + 1)
	if cap(u.diff) < n {
		u.diff = make([]int32, n)
	} else {
		u.diff = u.diff[:n]
		clear(u.diff)
	}
	diff := u.diff
	for _, r := range u.rects {
		x0 := sort.SearchFloat64s(xs, r.Min.X)
		x1 := sort.SearchFloat64s(xs, r.Max.X)
		y0 := sort.SearchFloat64s(ys, r.Min.Y)
		y1 := sort.SearchFloat64s(ys, r.Max.Y)
		for row := y0; row < y1; row++ {
			diff[row*(nx+1)+x0]++
			diff[row*(nx+1)+x1]--
		}
	}

	out := u.disjoint[:0]
	for j := 0; j < ny; j++ {
		row := diff[j*(nx+1) : (j+1)*(nx+1)]
		depth := int32(0)
		stripStart := -1
		for i := 0; i <= nx; i++ {
			depth += row[i]
			covered := i < nx && depth > 0
			if covered && stripStart < 0 {
				stripStart = i
			}
			if !covered && stripStart >= 0 {
				out = append(out, Rect{
					Min: Point{xs[stripStart], ys[j]},
					Max: Point{xs[i], ys[j+1]},
				})
				stripStart = -1
			}
		}
	}
	u.disjoint = out
	u.haveDisjoint = true
	return out
}

// Boundary returns the boundary of the union as a set of axis-parallel
// segments. A portion of a member rectangle's edge belongs to the union
// boundary exactly when no other member covers its outward side. The
// returned slice is invalidated by Add or Reset.
func (u *RectUnion) Boundary() []Segment {
	if len(u.rects) == 0 {
		return nil
	}
	if u.haveBoundary {
		return u.boundary
	}
	u.boundary = u.boundary[:0]
	for i := range u.rects {
		for side := sideBottom; side <= sideRight; side++ {
			u.boundary = u.appendEdgePieces(u.boundary, i, side)
		}
	}
	u.haveBoundary = true
	return u.boundary
}

// BoundaryDist returns the minimum Euclidean distance from p to the
// boundary of the union. For p inside the union this is the clearance
// radius (‖q, e_s‖ in the NNV algorithm); for p outside it is the distance
// to the union. It returns +Inf for an empty union. It builds and caches
// the whole boundary, which pays off when many points are queried
// against one union; a single query per union is cheaper through
// Clearance or ClearanceWithin, which build only the boundary near p.
//
// Large boundaries are pruned through an x-strip index: strips are
// visited outward from p's strip and the search stops as soon as the
// horizontal distance to the next strip already exceeds the best segment
// distance found (the horizontal distance lower-bounds the true segment
// distance, so no unvisited strip can improve the result).
func (u *RectUnion) BoundaryDist(p Point) float64 {
	segs := u.Boundary()
	best := math.Inf(1)
	if len(segs) < boundaryIndexMin {
		for _, s := range segs {
			if d := s.Dist(p); d < best {
				best = d
			}
		}
		return best
	}
	if !u.boundIdx.built {
		u.boundIdx.build(len(segs), func(i int) (float64, float64) {
			a, b := segs[i].A.X, segs[i].B.X
			if a > b {
				a, b = b, a
			}
			return a, b
		})
	}
	si := &u.boundIdx
	c := si.bucketOf(p.X)
	for d := 0; ; d++ {
		l, r := c-d, c+d
		if l < 0 && r >= si.n {
			break
		}
		lb := math.Inf(1)
		if l >= 0 {
			lb = si.stripLB(l, p.X)
		}
		if r < si.n && r != l {
			if v := si.stripLB(r, p.X); v < lb {
				lb = v
			}
		}
		if lb >= best {
			break
		}
		if l >= 0 && si.stripLB(l, p.X) < best {
			for _, i := range si.buckets[l] {
				if dd := segs[i].Dist(p); dd < best {
					best = dd
				}
			}
		}
		if r < si.n && r != l && si.stripLB(r, p.X) < best {
			for _, i := range si.buckets[r] {
				if dd := segs[i].Dist(p); dd < best {
					best = dd
				}
			}
		}
	}
	return best
}

// CoversRect reports whether rectangle w is entirely inside the union —
// the SBWQ full-coverage test (query window answered locally). It walks
// the compressed grid induced by the member coordinates inside w and
// returns false at the first uncovered cell, allocating nothing in the
// steady state (the grid scratch is reused).
func (u *RectUnion) CoversRect(w Rect) bool {
	if w.Empty() {
		return u.Contains(w.Min)
	}
	xs, ys := u.xs[:0], u.ys[:0]
	xs = append(xs, w.Min.X, w.Max.X)
	ys = append(ys, w.Min.Y, w.Max.Y)
	for _, r := range u.rects {
		if !r.Intersects(w) {
			continue
		}
		if r.Min.X > w.Min.X && r.Min.X < w.Max.X {
			xs = append(xs, r.Min.X)
		}
		if r.Max.X > w.Min.X && r.Max.X < w.Max.X {
			xs = append(xs, r.Max.X)
		}
		if r.Min.Y > w.Min.Y && r.Min.Y < w.Max.Y {
			ys = append(ys, r.Min.Y)
		}
		if r.Max.Y > w.Min.Y && r.Max.Y < w.Max.Y {
			ys = append(ys, r.Max.Y)
		}
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)
	u.xs, u.ys = xs, ys
	for j := 0; j+1 < len(ys); j++ {
		ymid := (ys[j] + ys[j+1]) / 2
		for i := 0; i+1 < len(xs); i++ {
			xmid := (xs[i] + xs[i+1]) / 2
			if !u.Contains(Point{xmid, ymid}) {
				return false
			}
		}
	}
	return true
}

// IntersectRectArea returns the exact area of w ∩ union.
func (u *RectUnion) IntersectRectArea(w Rect) float64 {
	total := 0.0
	for _, d := range u.Disjoint() {
		if clipped, ok := d.Intersect(w); ok {
			total += clipped.Area()
		}
	}
	return total
}

// IntersectCircleArea returns the exact area of the intersection between
// the disk (c, radius) and the union. It underlies the unverified-region
// area of Lemma 3.2: u = π r² − IntersectCircleArea(q, r).
//
// Large decompositions are pruned through an x-strip index over the
// disjoint rects: only strips overlapping [c.X−r, c.X+r] are visited, and
// a rect spanning several strips is counted exactly once (in the first
// visited strip it appears in).
func (u *RectUnion) IntersectCircleArea(c Point, radius float64) float64 {
	if radius <= 0 {
		return 0
	}
	dis := u.Disjoint()
	total := 0.0
	mbr := RectAround(c, radius)
	if len(dis) < disjointIndexMin {
		for _, d := range dis {
			if !d.Intersects(mbr) {
				continue
			}
			total += CircleRectArea(c, radius, d)
		}
		return total
	}
	if !u.disjIdx.built {
		u.disjIdx.build(len(dis), func(i int) (float64, float64) {
			return dis[i].Min.X, dis[i].Max.X
		})
	}
	si := &u.disjIdx
	b0 := si.bucketOf(c.X - radius)
	b1 := si.bucketOf(c.X + radius)
	for b := b0; b <= b1; b++ {
		for _, idx := range si.buckets[b] {
			d := dis[idx]
			first := si.bucketOf(d.Min.X)
			if first < b0 {
				first = b0
			}
			if first != b {
				continue // already counted in an earlier strip
			}
			if !d.Intersects(mbr) {
				continue
			}
			total += CircleRectArea(c, radius, d)
		}
	}
	return total
}

// UnverifiedArea returns the area of the part of the disk (c, radius) not
// covered by the union: the unverified region of a candidate POI at
// distance radius from the query point c (Lemma 3.2).
func (u *RectUnion) UnverifiedArea(c Point, radius float64) float64 {
	if radius <= 0 {
		return 0
	}
	area := math.Pi*radius*radius - u.IntersectCircleArea(c, radius)
	if area < 0 {
		return 0 // guard tiny negative rounding residue
	}
	return area
}

// SubtractRect returns the parts of w not covered by the union of covers,
// as a set of disjoint rectangles. This implements the query-window
// reduction of SBWQ: the returned rectangles are the reduced windows w′
// that still require on-air resolution.
func SubtractRect(w Rect, covers []Rect) []Rect {
	if w.Empty() {
		return nil
	}
	xs := []float64{w.Min.X, w.Max.X}
	ys := []float64{w.Min.Y, w.Max.Y}
	for _, r := range covers {
		if !r.Intersects(w) {
			continue
		}
		if r.Min.X > w.Min.X && r.Min.X < w.Max.X {
			xs = append(xs, r.Min.X)
		}
		if r.Max.X > w.Min.X && r.Max.X < w.Max.X {
			xs = append(xs, r.Max.X)
		}
		if r.Min.Y > w.Min.Y && r.Min.Y < w.Max.Y {
			ys = append(ys, r.Min.Y)
		}
		if r.Max.Y > w.Min.Y && r.Max.Y < w.Max.Y {
			ys = append(ys, r.Max.Y)
		}
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)

	covered := func(p Point) bool {
		for _, r := range covers {
			if r.Contains(p) {
				return true
			}
		}
		return false
	}

	var out []Rect
	for j := 0; j+1 < len(ys); j++ {
		ymid := (ys[j] + ys[j+1]) / 2
		stripStart := -1
		for i := 0; i <= len(xs)-1; i++ {
			uncovered := false
			if i+1 < len(xs) {
				xmid := (xs[i] + xs[i+1]) / 2
				uncovered = !covered(Point{xmid, ymid})
			}
			if uncovered && stripStart < 0 {
				stripStart = i
			}
			if !uncovered && stripStart >= 0 {
				out = append(out, Rect{
					Min: Point{xs[stripStart], ys[j]},
					Max: Point{xs[i], ys[j+1]},
				})
				stripStart = -1
			}
		}
	}
	return out
}

// stripIndex buckets items (boundary segments or disjoint rects) by
// uniform x-strips over their collective extent. Buckets hold item
// indices; an item overlapping several strips appears in each. The bucket
// arrays are reused across rebuilds, so a Reset/Add/rebuild cycle
// allocates nothing in the steady state.
type stripIndex struct {
	built bool
	minX  float64
	width float64
	n     int
	// buckets[0:n] hold the item indices per strip.
	buckets [][]int32
}

// build indexes `count` items whose x-extent is given by span.
func (si *stripIndex) build(count int, span func(i int) (lo, hi float64)) {
	minX, maxX := math.Inf(1), math.Inf(-1)
	for i := 0; i < count; i++ {
		lo, hi := span(i)
		if lo < minX {
			minX = lo
		}
		if hi > maxX {
			maxX = hi
		}
	}
	n := count / 4
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	width := (maxX - minX) / float64(n)
	if !(width > 0) {
		n, width = 1, 1
	}
	si.minX, si.width, si.n = minX, width, n
	for len(si.buckets) < n {
		si.buckets = append(si.buckets, nil)
	}
	for b := 0; b < n; b++ {
		si.buckets[b] = si.buckets[b][:0]
	}
	for i := 0; i < count; i++ {
		lo, hi := span(i)
		b0, b1 := si.bucketOf(lo), si.bucketOf(hi)
		for b := b0; b <= b1; b++ {
			si.buckets[b] = append(si.buckets[b], int32(i))
		}
	}
	si.built = true
}

// bucketOf maps an x coordinate to a strip, clamped to the index range.
func (si *stripIndex) bucketOf(x float64) int {
	b := int((x - si.minX) / si.width)
	if b < 0 {
		return 0
	}
	if b >= si.n {
		return si.n - 1
	}
	return b
}

// stripLB is the horizontal distance from x to strip b's x-range — a
// lower bound on the distance from any point with that x to any item
// indexed in the strip.
func (si *stripIndex) stripLB(b int, x float64) float64 {
	lo := si.minX + float64(b)*si.width
	hi := lo + si.width
	if x < lo {
		return lo - x
	}
	if x > hi {
		return x - hi
	}
	return 0
}

// Member-edge sides, in the order Boundary emits them for each member.
// Bottom and top sides are horizontal.
const (
	sideBottom = iota // outward side −Y
	sideTop           // outward side +Y
	sideLeft          // outward side −X
	sideRight         // outward side +X
)

// sideSpan returns one side of r as its coordinate on the perpendicular
// axis (level) and its extent [lo, hi] on the parallel axis.
func (r Rect) sideSpan(side int) (level, lo, hi float64) {
	switch side {
	case sideBottom:
		return r.Min.Y, r.Min.X, r.Max.X
	case sideTop:
		return r.Max.Y, r.Min.X, r.Max.X
	case sideLeft:
		return r.Min.X, r.Min.Y, r.Max.Y
	default:
		return r.Max.X, r.Min.Y, r.Max.Y
	}
}

// appendEdgePieces appends to dst the sub-segments of one side of member
// self that lie on the union boundary: the parts whose outward side no
// other member covers. An edge whose whole outward side lies inside a
// single other member contributes nothing, and the scan stops at the
// first such member. The covering-interval scratch is reused across
// calls.
func (u *RectUnion) appendEdgePieces(dst []Segment, self, side int) []Segment {
	level, lo, hi := u.rects[self].sideSpan(side)
	horizontal := side <= sideTop
	below := side == sideBottom || side == sideLeft // outward side has the smaller coordinate
	if lo >= hi {
		return dst
	}
	// Collect the intervals of [lo, hi] whose outward side is covered by
	// another rectangle: such portions are interior to the union.
	cov := u.cov[:0]
	for j, s := range u.rects {
		if j == self {
			continue
		}
		var perpMin, perpMax, parMin, parMax float64
		if horizontal {
			perpMin, perpMax = s.Min.Y, s.Max.Y
			parMin, parMax = s.Min.X, s.Max.X
		} else {
			perpMin, perpMax = s.Min.X, s.Max.X
			parMin, parMax = s.Min.Y, s.Max.Y
		}
		var coversOutward bool
		if below {
			// Points just below `level` are inside s.
			coversOutward = perpMin < level && perpMax >= level
		} else {
			// Points just above `level` are inside s.
			coversOutward = perpMax > level && perpMin <= level
		}
		if !coversOutward {
			continue
		}
		if parMin <= lo && parMax >= hi {
			u.cov = cov
			return dst // s covers the whole outward side: the edge is interior
		}
		a, b := math.Max(parMin, lo), math.Min(parMax, hi)
		if a < b {
			cov = append(cov, interval{a, b})
		}
	}
	u.cov = cov
	return appendGaps(dst, cov, lo, hi, level, horizontal)
}

type interval struct{ a, b float64 }

// appendGaps sorts cov by start and appends to dst the maximal parts of
// [lo, hi] that no interval of cov covers, as segments at coordinate
// level on the perpendicular axis (horizontal selects the orientation).
// Covering intervals are closed, so zero-length leftovers are dropped.
// The order of intervals with equal starts does not change the pieces:
// the first one moves the cursor past the shared start, and the cursor
// ends at the largest end either way.
func appendGaps(dst []Segment, cov []interval, lo, hi, level float64, horizontal bool) []Segment {
	slices.SortFunc(cov, func(x, y interval) int { return cmp.Compare(x.a, y.a) })
	cursor := lo
	for _, c := range cov {
		if c.b <= cursor {
			continue
		}
		if c.a > cursor {
			end := math.Min(c.a, hi)
			if end > cursor {
				dst = append(dst, piece(cursor, end, level, horizontal))
			}
		}
		cursor = c.b
		if cursor >= hi {
			return dst
		}
	}
	if cursor < hi {
		dst = append(dst, piece(cursor, hi, level, horizontal))
	}
	return dst
}

// piece returns the axis-parallel segment spanning [a, b] at coordinate
// level on the perpendicular axis.
func piece(a, b, level float64, horizontal bool) Segment {
	if horizontal {
		return Segment{Point{a, level}, Point{b, level}}
	}
	return Segment{Point{level, a}, Point{level, b}}
}

// dedupSorted sorts vs ascending and removes duplicates in place.
func dedupSorted(vs []float64) []float64 {
	sort.Float64s(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
