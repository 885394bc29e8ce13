package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSegmentRectDist(t *testing.T) {
	r := NewRect(0, 0, 4, 4)
	cases := []struct {
		name string
		s    Segment
		want float64
	}{
		{"crossing", Segment{Pt(-1, 2), Pt(5, 2)}, 0},
		{"inside", Segment{Pt(1, 1), Pt(3, 1)}, 0},
		{"touching edge", Segment{Pt(4, 1), Pt(4, 3)}, 0},
		{"left of rect", Segment{Pt(-2, 1), Pt(-2, 3)}, 2},
		{"above rect", Segment{Pt(1, 7), Pt(3, 7)}, 3},
		{"diagonal corner gap", Segment{Pt(7, 8), Pt(9, 8)}, math.Hypot(3, 4)},
		{"degenerate point", Segment{Pt(-3, -4), Pt(-3, -4)}, 5},
	}
	for _, c := range cases {
		if got := SegmentRectDist(c.s, r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: got %g, want %g", c.name, got, c.want)
		}
	}
}

// Differential: for axis-parallel segments the closed-form distance must
// agree with a dense sampling of Rect.Dist along the segment (Rect.Dist
// is 1-Lipschitz, so n samples bound the error by length/n).
func TestQuickSegmentRectDistSampled(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRect(rng, 5)
		a := randomPoint(rng, 8)
		b := a
		if rng.Intn(2) == 0 {
			b.X = a.X + rng.Float64()*6 // horizontal
		} else {
			b.Y = a.Y + rng.Float64()*6 // vertical
		}
		s := Segment{a, b}
		got := SegmentRectDist(s, r)
		const n = 2000
		brute := math.Inf(1)
		for i := 0; i <= n; i++ {
			t := float64(i) / n
			p := Pt(a.X+t*(b.X-a.X), a.Y+t*(b.Y-a.Y))
			if d := r.Dist(p); d < brute {
				brute = d
			}
		}
		return math.Abs(got-brute) <= s.Length()/n+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClearanceRectHand(t *testing.T) {
	u := NewRectUnion(NewRect(0, 0, 10, 10))
	if d, ok := u.ClearanceRect(NewRect(4, 4, 6, 6)); !ok || math.Abs(d-4) > 1e-12 {
		t.Errorf("centered window: got (%g, %v), want (4, true)", d, ok)
	}
	if d, ok := u.ClearanceRect(NewRect(0, 0, 10, 10)); !ok || d != 0 {
		t.Errorf("window == union: got (%g, %v), want (0, true)", d, ok)
	}
	if _, ok := u.ClearanceRect(NewRect(8, 8, 12, 12)); ok {
		t.Error("uncovered window reported as covered")
	}

	// Two overlapping members: the shared interior edge is not boundary,
	// so a window straddling the seam keeps the clearance of the outer
	// perimeter.
	u2 := NewRectUnion(NewRect(0, 0, 6, 10), NewRect(4, 0, 10, 10))
	if d, ok := u2.ClearanceRect(NewRect(4.5, 4, 5.5, 6)); !ok || math.Abs(d-4) > 1e-12 {
		t.Errorf("seam window: got (%g, %v), want (4, true)", d, ok)
	}
}

// Property: any translation of a covered window by a vector strictly
// shorter than its clearance keeps the window covered — the safe-region
// soundness contract continuous subscriptions rely on (DESIGN.md §15).
func TestQuickClearanceRectSafeTranslation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []Rect
		for i := 0; i < 1+rng.Intn(6); i++ {
			rects = append(rects, randomRect(rng, 5))
		}
		u := NewRectUnion(rects...)
		// Carve a window inside one member so it starts covered.
		host := rects[rng.Intn(len(rects))]
		cx, cy := host.Center().X, host.Center().Y
		w := NewRect(
			cx-rng.Float64()*host.Width()/2, cy-rng.Float64()*host.Height()/2,
			cx+rng.Float64()*host.Width()/2, cy+rng.Float64()*host.Height()/2,
		)
		d, ok := u.ClearanceRect(w)
		if !ok {
			return u.CoversRect(w) == false
		}
		if d == 0 {
			return true // window touches the boundary; no safe translation
		}
		for i := 0; i < 16; i++ {
			ang := rng.Float64() * 2 * math.Pi
			step := rng.Float64() * d * 0.999
			v := Pt(step*math.Cos(ang), step*math.Sin(ang))
			moved := Rect{Min: w.Min.Add(v), Max: w.Max.Add(v)}
			if !u.CoversRect(moved) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInnerGap(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	if g := r.InnerGap(NewRect(2, 3, 6, 5)); math.Abs(g-2) > 1e-12 {
		t.Errorf("inner gap: got %g, want 2", g)
	}
	if g := r.InnerGap(r); g != 0 {
		t.Errorf("self gap: got %g, want 0", g)
	}
	if g := r.InnerGap(NewRect(-1, 2, 4, 6)); g >= 0 {
		t.Errorf("escaping rect must report a negative gap, got %g", g)
	}
}

// mvrLikeUnion builds a union shaped like a warm-cache merged verified
// region: about 110 members overlapping one neighbourhood, half of them
// nested inside an earlier member (some flush against one of its
// sides), plus exact duplicates, members sharing an edge, and degenerate
// members (which Add drops). Coordinates sit on a 1/64 grid so edges
// coincide often, shifted by offset to exercise large magnitudes.
func mvrLikeUnion(rng *rand.Rand, offset float64) (*RectUnion, []Rect) {
	snap := func(v float64) float64 { return math.Round(v*64)/64 + offset }
	var rects []Rect
	n := 100 + rng.Intn(20)
	for len(rects) < n {
		switch roll := rng.Float64(); {
		case len(rects) > 0 && roll < 0.5: // nested in an earlier member
			host := rects[rng.Intn(len(rects))]
			x0 := host.Min.X + rng.Float64()*host.Width()/2
			y0 := host.Min.Y + rng.Float64()*host.Height()/2
			x1 := x0 + rng.Float64()*(host.Max.X-x0)
			y1 := y0 + rng.Float64()*(host.Max.Y-y0)
			r := NewRect(snap(x0-offset), snap(y0-offset), snap(x1-offset), snap(y1-offset))
			if rng.Intn(3) == 0 {
				r.Min.X = host.Min.X // flush against the host's left side
			}
			if rng.Intn(3) == 0 {
				r.Max.Y = host.Max.Y
			}
			rects = append(rects, r)
		case len(rects) > 0 && roll < 0.6: // exact duplicate
			rects = append(rects, rects[rng.Intn(len(rects))])
		case len(rects) > 0 && roll < 0.7: // shares a side with an earlier member
			nb := rects[rng.Intn(len(rects))]
			w := snap(0.1+rng.Float64()) - offset
			rects = append(rects, Rect{Min: Point{nb.Max.X, nb.Min.Y}, Max: Point{nb.Max.X + w, nb.Max.Y}})
		case roll < 0.75: // degenerate
			x, y := snap(rng.Float64()*4), snap(rng.Float64()*4)
			rects = append(rects, Rect{Min: Point{x, y}, Max: Point{x, y + 1}})
		default:
			cx, cy := rng.Float64()*4, rng.Float64()*4
			rects = append(rects, NewRect(snap(cx), snap(cy), snap(cx+0.3+rng.Float64()*2), snap(cy+0.3+rng.Float64()*2)))
		}
	}
	return NewRectUnion(rects...), rects
}

// TestClearanceWalkMatchesFullBoundary is the differential contract of
// the query-local clearance walk: Clearance, ClearanceWithin (limits
// below, at and above the true value) and ClearanceRect return the same
// float64 as the minimum over the full Boundary(), and BoundaryDist's
// strip-indexed search agrees with both.
func TestClearanceWalkMatchesFullBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 60; trial++ {
		offset := 0.0
		if trial%3 == 2 {
			offset = 3e5
		}
		u, rects := mvrLikeUnion(rng, offset)
		members := u.Rects()
		type probe struct {
			p            Point
			got          float64
			ok           bool
			capped       []float64 // ClearanceWithin at the limits below
			cappedLimits []float64
		}
		var probes []probe
		for i := 0; i < 24; i++ {
			m := members[rng.Intn(len(members))]
			p := Pt(m.Min.X+rng.Float64()*m.Width(), m.Min.Y+rng.Float64()*m.Height())
			switch i % 6 {
			case 1:
				p.X = m.Max.X // on a member side
			case 2:
				p = m.Min // on a member corner
			case 3:
				p = rects[rng.Intn(len(rects))].Center() // possibly outside
			}
			// Query the walk before anything builds the boundary cache.
			got, ok := u.Clearance(p)
			probes = append(probes, probe{p: p, got: got, ok: ok})
		}
		for i := range probes {
			pr := &probes[i]
			if pr.ok != u.Contains(pr.p) {
				t.Fatalf("trial %d: Clearance ok=%v, Contains=%v at %v", trial, pr.ok, !pr.ok, pr.p)
			}
			if !pr.ok {
				if pr.got != 0 {
					t.Fatalf("trial %d: outside point got clearance %v", trial, pr.got)
				}
				continue
			}
			ref := math.Inf(1)
			for _, s := range u.Boundary() {
				ref = min(ref, s.Dist(pr.p))
			}
			if !same(pr.got, ref) {
				t.Fatalf("trial %d: Clearance(%v) = %v, full boundary %v", trial, pr.p, pr.got, ref)
			}
			if bd := u.BoundaryDist(pr.p); !same(bd, ref) {
				t.Fatalf("trial %d: BoundaryDist(%v) = %v, full boundary %v", trial, pr.p, bd, ref)
			}
			for _, limit := range []float64{0, ref / 2, math.Nextafter(ref, 0), ref,
				math.Nextafter(ref, math.Inf(1)), ref * 2, math.Inf(1)} {
				got, ok := u.ClearanceWithin(pr.p, limit)
				if !ok || !same(got, min(ref, limit)) {
					t.Fatalf("trial %d: ClearanceWithin(%v, %v) = (%v, %v), want %v",
						trial, pr.p, limit, got, ok, min(ref, limit))
				}
			}
		}
		for i := 0; i < 12; i++ {
			m := members[rng.Intn(len(members))]
			x0 := m.Min.X + rng.Float64()*m.Width()
			y0 := m.Min.Y + rng.Float64()*m.Height()
			w := NewRect(x0, y0, x0+rng.Float64()*(m.Max.X-x0), y0+rng.Float64()*(m.Max.Y-y0))
			if i%4 == 3 {
				w = m // a whole member
			}
			got, ok := u.ClearanceRect(w)
			if !ok {
				t.Fatalf("trial %d: window %v inside a member reported uncovered", trial, w)
			}
			ref := math.Inf(1)
			for _, s := range u.Boundary() {
				ref = min(ref, SegmentRectDist(s, w))
			}
			if !same(got, ref) {
				t.Fatalf("trial %d: ClearanceRect(%v) = %v, full boundary %v", trial, w, got, ref)
			}
		}
	}
}
