//go:build !race

// Steady-state allocation assertions for the reused RectUnion. Excluded
// under the race detector: -race instruments allocations and makes
// AllocsPerRun counts meaningless.

package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestRectUnionReuseAllocs asserts the full Reset → Add → query cycle
// allocates nothing once warm: every cache (disjoint decomposition,
// boundary segments, strip indexes, grid scratch) must reuse its
// capacity across queries. This is the steady-state contract the sim
// hot path depends on; any regression fails the build.
func TestRectUnionReuseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rects := make([]Rect, 48)
	for i := range rects {
		x, y := rng.Float64()*90, rng.Float64()*90
		rects[i] = NewRect(x, y, x+2+rng.Float64()*8, y+2+rng.Float64()*8)
	}
	var u RectUnion
	cycle := func() {
		u.Reset()
		for _, r := range rects {
			u.Add(r)
		}
		_ = u.BoundaryDist(Pt(50, 50))
		_ = u.IntersectCircleArea(Pt(50, 50), 15)
		_ = u.CoversRect(NewRect(40, 40, 60, 60))
		_ = u.IntersectRectArea(NewRect(30, 30, 70, 70))
	}
	cycle() // warm every cache to capacity
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm RectUnion cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestClearanceWithinAllocs asserts the capped clearance walk and its
// one-member shortcut allocate nothing on a reused union once its edge
// and piece scratch is warm — NNV runs it once per query on the
// per-client MVR.
func TestClearanceWithinAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	_, rects := mvrLikeUnion(rng, 0)
	var u RectUnion
	cycle := func() {
		u.Reset()
		for _, r := range rects {
			u.Add(r)
		}
		m := u.Rects()
		_, _ = u.ClearanceWithin(m[0].Center(), 0.5)
		_, _ = u.ClearanceWithin(m[0].Center(), 0) // the shortcut
		_, _ = u.ClearanceWithin(m[1].Center(), math.Inf(1))
		_, _ = u.ClearanceRect(m[2])
	}
	cycle() // warm the scratch to capacity
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm ClearanceWithin cycle allocates %.1f times per run, want 0", allocs)
	}
}
