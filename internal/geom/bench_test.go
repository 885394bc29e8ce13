package geom

import (
	"math/rand"
	"testing"
)

func benchUnion(n int, seed int64) (*RectUnion, Point) {
	rng := rand.New(rand.NewSource(seed))
	rects := make([]Rect, n)
	for i := range rects {
		cx, cy := rng.Float64()*20, rng.Float64()*20
		rects[i] = NewRect(cx, cy, cx+0.5+rng.Float64()*2, cy+0.5+rng.Float64()*2)
	}
	u := NewRectUnion(rects...)
	// A probe point inside some member.
	p := rects[0].Center()
	return u, p
}

func BenchmarkClearance16(b *testing.B) {
	u, p := benchUnion(16, 1)
	u.Boundary() // warm the cache once; per-query cost includes it below
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.BoundaryDist(p)
	}
}

func BenchmarkBoundaryBuild64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, _ := benchUnion(64, int64(i))
		if len(u.Boundary()) == 0 {
			b.Fatal("empty boundary")
		}
	}
}

func BenchmarkDisjointDecompose64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		u, _ := benchUnion(64, int64(i))
		if len(u.Disjoint()) == 0 {
			b.Fatal("empty decomposition")
		}
	}
}

func BenchmarkCircleRectArea(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rects := make([]Rect, 256)
	for i := range rects {
		cx, cy := rng.Float64()*10-5, rng.Float64()*10-5
		rects[i] = NewRect(cx, cy, cx+1+rng.Float64()*3, cy+1+rng.Float64()*3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CircleRectArea(Pt(0, 0), 3, rects[i%len(rects)])
	}
}

func BenchmarkUnverifiedArea32(b *testing.B) {
	u, p := benchUnion(32, 3)
	u.Disjoint() // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.UnverifiedArea(p, 2.5)
	}
}

func BenchmarkSubtractRect(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	covers := make([]Rect, 24)
	for i := range covers {
		cx, cy := rng.Float64()*10, rng.Float64()*10
		covers[i] = NewRect(cx, cy, cx+1+rng.Float64()*2, cy+1+rng.Float64()*2)
	}
	w := NewRect(2, 2, 9, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SubtractRect(w, covers)
	}
}

// BenchmarkClearanceNested112 measures the per-query clearance NNV pays
// on a fresh warm-cache-shaped MVR: 112 members, about half nested,
// rebuilt into a reused union each iteration so no boundary cache
// survives between queries.
func BenchmarkClearanceNested112(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var rects []Rect
	for len(rects) < 112 {
		_, rs := mvrLikeUnion(rng, 0)
		rects = append(rects, rs...)
	}
	rects = rects[:112]
	var u RectUnion
	for _, r := range rects {
		u.Add(r)
	}
	p := u.Rects()[0].Center()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Reset()
		for _, r := range rects {
			u.Add(r)
		}
		if _, ok := u.Clearance(p); !ok {
			b.Fatal("probe outside the union")
		}
	}
}
