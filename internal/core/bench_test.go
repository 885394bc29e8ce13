package core

import (
	"math/rand"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// benchPeers builds sound peer data around the origin of a random POI
// field.
func benchPeers(rng *rand.Rand, db []broadcast.POI, n int) []PeerData {
	var peers []PeerData
	for i := 0; i < n; i++ {
		cx, cy := 12+rng.Float64()*8, 12+rng.Float64()*8
		vr := geom.NewRect(cx, cy, cx+3+rng.Float64()*4, cy+3+rng.Float64()*4)
		pd := PeerData{VR: vr}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	return peers
}

func benchDB(rng *rand.Rand, n int) []broadcast.POI {
	db := make([]broadcast.POI, n)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	return db
}

// The NNV benchmarks measure the steady-state hot path the simulator
// runs per query: a warm, reused Scratch (see NNVScratch). The *Cold
// variants keep the allocate-per-call cost visible for comparison.

func BenchmarkNNV8Peers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 8)
	q := geom.Pt(16, 16)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(&s, q, peers, 5, 0.5)
	}
}

func BenchmarkNNV64Peers(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 64)
	q := geom.Pt(16, 16)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(&s, q, peers, 5, 0.5)
	}
}

func BenchmarkNNV64PeersCold(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 64)
	q := geom.Pt(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNV(q, peers, 5, 0.5)
	}
}

func BenchmarkSBNNPeerResolved(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := benchDB(rng, 500)
	// One big sound region guarantees verification.
	vr := geom.NewRect(8, 8, 24, 24)
	pd := PeerData{VR: vr}
	for _, p := range db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		b.Fatal(err)
	}
	cfg := SBNNConfig{K: 5, Lambda: 0.5}
	q := geom.Pt(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SBNN(q, []PeerData{pd}, cfg, sched, int64(i))
		if res.Outcome != OutcomeVerified {
			b.Fatal("expected verified outcome")
		}
	}
}

func BenchmarkSBNNBroadcastFallback(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	db := benchDB(rng, 500)
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		b.Fatal(err)
	}
	cfg := SBNNConfig{K: 5, Lambda: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*32, rng.Float64()*32)
		res := SBNN(q, nil, cfg, sched, int64(i))
		if res.Outcome != OutcomeBroadcast {
			b.Fatal("expected broadcast outcome")
		}
	}
}

func BenchmarkSBWQCovered(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db := benchDB(rng, 500)
	vr := geom.NewRect(8, 8, 24, 24)
	pd := PeerData{VR: vr}
	for _, p := range db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	w := geom.NewRect(14, 14, 18, 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := SBWQ(geom.Pt(16, 16), w, []PeerData{pd}, nil, 0)
		if res.Outcome != OutcomeVerified {
			b.Fatal("expected verified outcome")
		}
	}
}

func BenchmarkCorrectnessProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		CorrectnessProbability(0.3, float64(i%10))
	}
}

// warmCityPeers builds peer data shaped like one knn_warm_city query:
// 56 POIs around q and 118 peer regions, about half nested inside an
// earlier region, each carrying every POI it covers — 685 raw candidates
// over 54 distinct ones, and an MVR of 118 members. One member holds the
// k = 5 disk around q, so NNV's clearance takes the one-member shortcut.
func warmCityPeers() (geom.Point, []PeerData) {
	rng := rand.New(rand.NewSource(6))
	db := make([]broadcast.POI, 56)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(0.7+rng.Float64()*2.6, 0.7+rng.Float64()*2.6)}
	}
	var vrs []geom.Rect
	for len(vrs) < 118 {
		if len(vrs) > 0 && rng.Intn(2) == 0 {
			host := vrs[rng.Intn(len(vrs))]
			x0 := host.Min.X + rng.Float64()*host.Width()/2
			y0 := host.Min.Y + rng.Float64()*host.Height()/2
			vrs = append(vrs, geom.NewRect(x0, y0,
				x0+(0.5+rng.Float64()/2)*(host.Max.X-x0), y0+(0.5+rng.Float64()/2)*(host.Max.Y-y0)))
			continue
		}
		cx, cy := 1+rng.Float64()*2, 1+rng.Float64()*2
		w, h := 0.55+rng.Float64(), 0.55+rng.Float64()
		vrs = append(vrs, geom.NewRect(cx-w/2, cy-h/2, cx+w/2, cy+h/2))
	}
	peers := make([]PeerData, len(vrs))
	for i, vr := range vrs {
		peers[i].VR = vr
		for _, p := range db {
			if vr.Contains(p.Pos) {
				peers[i].POIs = append(peers[i].POIs, p)
			}
		}
	}
	return geom.Pt(2, 2), peers
}

// BenchmarkNNVWarmCityShape measures the warm NNV hot path at the shape
// of a knn_warm_city query (k = 5): its cost should follow k and the MVR
// near q, not the 660 raw candidates.
func BenchmarkNNVWarmCityShape(b *testing.B) {
	q, peers := warmCityPeers()
	var s Scratch
	NNVScratch(&s, q, peers, 5, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNVScratch(&s, q, peers, 5, 0.5)
	}
}
