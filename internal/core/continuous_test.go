package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// contTestDB builds a synthetic database and sound peers over it: each
// peer's region holds exactly the database POIs inside it, the honest
// cached-result contract the safe-exit math relies on.
func contTestDB(rng *rand.Rand, nPOIs, nPeers int) ([]broadcast.POI, []PeerData) {
	db := make([]broadcast.POI, nPOIs)
	for i := range db {
		db[i] = broadcast.POI{
			ID:  int64(i + 1),
			Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10),
		}
	}
	peers := make([]PeerData, 0, nPeers)
	for i := 0; i < nPeers; i++ {
		c := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		vr := geom.RectAround(c, 0.5+rng.Float64()*2.5)
		var pois []broadcast.POI
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pois = append(pois, p)
			}
		}
		peers = append(peers, PeerData{VR: vr, POIs: pois})
	}
	return db, peers
}

// bruteKNN returns the exact top-k ID set over the whole database in the
// algorithms' (distance, ID) total order.
func bruteKNN(db []broadcast.POI, q geom.Point, k int) map[int64]bool {
	sorted := append([]broadcast.POI(nil), db...)
	sortCandidates(sorted, q)
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	ids := make(map[int64]bool, len(sorted))
	for _, p := range sorted {
		ids[p.ID] = true
	}
	return ids
}

func sameIDSet(answer []broadcast.POI, want map[int64]bool) bool {
	if len(answer) != len(want) {
		return false
	}
	for _, p := range answer {
		if !want[p.ID] {
			return false
		}
	}
	return true
}

// Differential property: any query position strictly inside the
// safe-exit radius of a verified kNN answer yields the identical answer
// set as a brute-force re-run over the full database.
func TestQuickSafeExitKNNDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, peers := contTestDB(rng, 40+rng.Intn(80), 3+rng.Intn(6))
		q := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		k := 1 + rng.Intn(4)
		nnv := NNV(q, peers, k, 1)
		if nnv.Heap.VerifiedCount() < k {
			return true // not a verified answer; no safe region to test
		}
		answer := nnv.Heap.POIs()
		clearance, ok := nnv.MVR.Clearance(q)
		if !ok {
			return true
		}
		var cands []broadcast.POI
		for _, p := range peers {
			cands = append(cands, p.POIs...)
		}
		rs := SafeExitKNN(q, answer, cands, clearance)
		if rs <= 0 {
			return true
		}
		for trial := 0; trial < 24; trial++ {
			ang := rng.Float64() * 2 * math.Pi
			step := rng.Float64() * rs * 0.999
			q2 := geom.Pt(q.X+step*math.Cos(ang), q.Y+step*math.Sin(ang))
			if !sameIDSet(answer, bruteKNN(db, q2, k)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Differential property: any rigid translation of a covered window
// strictly inside its safe-exit radius keeps the exact window answer
// (ID set) identical to a brute-force re-run over the full database.
func TestQuickSafeExitWindowDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, peers := contTestDB(rng, 40+rng.Intn(80), 3+rng.Intn(6))
		u := geom.NewRectUnion()
		for _, p := range peers {
			u.Add(p.VR)
		}
		c := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		w := geom.RectAround(c, 0.1+rng.Float64()*1.2)
		m1, ok := u.ClearanceRect(w)
		if !ok {
			return true // window not covered; no exact answer to maintain
		}
		var answer, cands []broadcast.POI
		for _, p := range peers {
			cands = append(cands, p.POIs...)
		}
		for _, p := range db {
			if w.Contains(p.Pos) {
				answer = append(answer, p)
			}
		}
		rs := SafeExitWindow(w, cands, m1)
		if rs <= 0 {
			return true
		}
		want := make(map[int64]bool, len(answer))
		for _, p := range answer {
			want[p.ID] = true
		}
		for trial := 0; trial < 24; trial++ {
			ang := rng.Float64() * 2 * math.Pi
			step := rng.Float64() * rs * 0.999
			v := geom.Pt(step*math.Cos(ang), step*math.Sin(ang))
			moved := geom.Rect{Min: w.Min.Add(v), Max: w.Max.Add(v)}
			var got []broadcast.POI
			for _, p := range db {
				if moved.Contains(p.Pos) {
					got = append(got, p)
				}
			}
			if !sameIDSet(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSafeExitKNNHand(t *testing.T) {
	q := geom.Pt(5, 5)
	answer := []broadcast.POI{{ID: 1, Pos: geom.Pt(5, 6)}} // dK = 1
	cands := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(5, 6)},
		{ID: 2, Pos: geom.Pt(5, 9)}, // nearest non-answer at 4
	}
	// clearance 10 > candidate margin: rs = (4-1)/2.
	if rs := SafeExitKNN(q, answer, cands, 10); math.Abs(rs-1.5) > 1e-12 {
		t.Errorf("candidate-limited: got %g, want 1.5", rs)
	}
	// clearance 2 < candidate margin: rs = (2-1)/2.
	if rs := SafeExitKNN(q, answer, cands, 2); math.Abs(rs-0.5) > 1e-12 {
		t.Errorf("clearance-limited: got %g, want 0.5", rs)
	}
	// Tie: a non-answer candidate at the same distance pins rs to zero.
	tie := append(cands, broadcast.POI{ID: 3, Pos: geom.Pt(5, 4)})
	if rs := SafeExitKNN(q, answer, tie, 10); rs != 0 {
		t.Errorf("tie: got %g, want 0", rs)
	}
	if rs := SafeExitKNN(q, nil, cands, 10); rs != 0 {
		t.Errorf("empty answer: got %g, want 0", rs)
	}
}

func TestSafeExitWindowHand(t *testing.T) {
	w := geom.NewRect(2, 2, 8, 8)
	cands := []broadcast.POI{
		{ID: 1, Pos: geom.Pt(5, 5)},  // inside, 3 from boundary
		{ID: 2, Pos: geom.Pt(9, 5)},  // outside, 1 from boundary
		{ID: 3, Pos: geom.Pt(20, 5)}, // far away
	}
	if rs := SafeExitWindow(w, cands, 10); math.Abs(rs-1) > 1e-12 {
		t.Errorf("candidate-limited: got %g, want 1", rs)
	}
	if rs := SafeExitWindow(w, cands, 0.25); math.Abs(rs-0.25) > 1e-12 {
		t.Errorf("coverage-limited: got %g, want 0.25", rs)
	}
	if rs := SafeExitWindow(w, nil, 2); math.Abs(rs-2) > 1e-12 {
		t.Errorf("no candidates: got %g, want 2", rs)
	}
}
