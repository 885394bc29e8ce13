package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// selectionWorld draws a POI database on a coarse grid around q, so
// exact distance ties (broken by ID) are common, and peers that share
// POIs, so every pool holds duplicate IDs. A quarter of the IDs also
// sit at a second position, the way a moved POI does in a stale region:
// both copies can land in one pool, adjacent in the sort or not. The pools
// may share IDs, as demoted stale regions do in the simulator.
func selectionWorld(rng *rand.Rand) (geom.Point, []PeerData) {
	q := geom.Pt(8, 8)
	db := make([]broadcast.POI, 4+rng.Intn(40))
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(float64(4+rng.Intn(9)), float64(4+rng.Intn(9)))}
	}
	for _, i := range rng.Perm(len(db))[:len(db)/4] {
		// Off the grid, so no moved copy ties its original's distance.
		moved := db[i]
		moved.Pos = moved.Pos.Add(geom.Pt(0.37*float64(rng.Intn(5)-2), 0.29*float64(1+rng.Intn(3))))
		db = append(db, moved)
	}
	peers := make([]PeerData, 1+rng.Intn(10))
	for i := range peers {
		x0, y0 := 3+rng.Float64()*5, 3+rng.Float64()*5
		pd := PeerData{VR: geom.NewRect(x0, y0, x0+1+rng.Float64()*8, y0+1+rng.Float64()*8), Tainted: rng.Intn(3) == 0}
		for n := rng.Intn(2 * len(db)); n > 0; n-- {
			pd.POIs = append(pd.POIs, db[rng.Intn(len(db))])
		}
		peers[i] = pd
	}
	return q, peers
}

// sortedPool is the full-sort reference for one pool: every POI of the
// matching peers, sorted and deduplicated.
func sortedPool(peers []PeerData, tainted bool, q geom.Point) []broadcast.POI {
	var pool []broadcast.POI
	for _, p := range peers {
		if p.Tainted == tainted {
			pool = append(pool, p.POIs...)
		}
	}
	sortCandidates(pool, q)
	return dedupSortedCandidates(pool)
}

// TestSelectNearestMatchesSort pins the selection against the full sort:
// for every k from 1 to n+2 it keeps exactly the first k entries of
// sortCandidates + dedupSortedCandidates, in order.
func TestSelectNearestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		q, peers := selectionWorld(rng)
		for _, tainted := range []bool{false, true} {
			ref := sortedPool(peers, tainted, q)
			for k := 1; k <= len(ref)+2; k++ {
				best := dropRepeatedIDs(selectNearest(nil, peers, tainted, q, k))
				want := ref[:min(k, len(ref))]
				if len(best) != len(want) {
					t.Fatalf("trial %d k=%d: selected %d candidates, want %d", trial, k, len(best), len(want))
				}
				for i, c := range best {
					if c.poi != want[i] || c.d2 != want[i].Pos.DistSq(q) {
						t.Fatalf("trial %d k=%d: entry %d = %+v, want %+v", trial, k, i, c, want[i])
					}
				}
			}
		}
	}
}

// fullSortNNV is NNV as written before k-selection: both pools fully
// sorted and deduplicated, merge-walked into the heap, then verified
// against min(limit, the minimum Segment.Dist over the whole MVR
// boundary).
func fullSortNNV(q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	mvr := &geom.RectUnion{}
	for _, p := range peers {
		if !p.Tainted {
			mvr.Add(p.VR)
		}
	}
	cands := sortedPool(peers, false, q)
	taints := sortedPool(peers, true, q)
	res := NNVResult{Heap: NewHeap(k), MVR: mvr, TaintedCandidates: len(taints)}
	before := func(a, b broadcast.POI) bool {
		da, db := a.Pos.DistSq(q), b.Pos.DistSq(q)
		return da < db || (da == db && a.ID < b.ID)
	}
	i, j := 0, 0
	for (i < len(cands) || j < len(taints)) && !res.Heap.Full() {
		pick := i >= len(cands) || (j < len(taints) && before(taints[j], cands[i]))
		var poi broadcast.POI
		if pick {
			poi, j = taints[j], j+1
		} else {
			poi, i = cands[i], i+1
		}
		res.Examined++
		res.Heap.add(Entry{POI: poi, Dist: poi.Pos.Dist(q), Tainted: pick})
	}
	limit, _ := res.Heap.LastDist()
	if res.InsideMVR = mvr.Contains(q); res.InsideMVR {
		res.EdgeDist = limit
		for _, s := range mvr.Boundary() {
			res.EdgeDist = min(res.EdgeDist, s.Dist(q))
		}
	}
	lastVerified, hasVerified := 0.0, false
	for x := range res.Heap.entries {
		e := &res.Heap.entries[x]
		if !e.Tainted && res.InsideMVR && e.Dist <= res.EdgeDist {
			e.Verified, e.Correctness = true, 1
			lastVerified, hasVerified = e.Dist, true
			continue
		}
		e.Correctness = CorrectnessProbability(lambda, mvr.UnverifiedArea(q, e.Dist))
		if hasVerified && lastVerified > 0 {
			e.Surpassing = e.Dist / lastVerified
		}
	}
	return res
}

// TestNNVSelectionMatchesFullSort is the end-to-end differential of the
// k-selection: on random mixed tainted/untainted pools with duplicate
// IDs, IDs at two positions and exact distance ties, NNV on one reused Scratch is bit-equal to
// the full-sort reference for every k (k = 0 included, where the heap
// never fills and Examined counts every distinct candidate).
func TestNNVSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s Scratch
	for trial := 0; trial < 300; trial++ {
		q, peers := selectionWorld(rng)
		distinct := len(sortedPool(peers, false, q)) + len(sortedPool(peers, true, q))
		for k := 0; k <= distinct+2; k++ {
			got := NNVScratch(&s, q, peers, k, 0.3)
			want := fullSortNNV(q, peers, k, 0.3)
			if math.Float64bits(got.EdgeDist) != math.Float64bits(want.EdgeDist) ||
				got.InsideMVR != want.InsideMVR || got.Examined != want.Examined ||
				got.TaintedCandidates != want.TaintedCandidates {
				t.Fatalf("trial %d k=%d: scalars differ:\n got  edge=%v inside=%v examined=%d tainted=%d\n want edge=%v inside=%v examined=%d tainted=%d",
					trial, k, got.EdgeDist, got.InsideMVR, got.Examined, got.TaintedCandidates,
					want.EdgeDist, want.InsideMVR, want.Examined, want.TaintedCandidates)
			}
			if ge, we := got.Heap.Entries(), want.Heap.Entries(); (len(ge) > 0 || len(we) > 0) && !reflect.DeepEqual(ge, we) {
				t.Fatalf("trial %d k=%d: heap entries differ:\n got  %+v\n want %+v",
					trial, k, got.Heap.Entries(), want.Heap.Entries())
			}
			if k == 0 && got.Examined != distinct {
				t.Fatalf("trial %d: k=0 examined %d, want every distinct candidate (%d)", trial, got.Examined, distinct)
			}
		}
	}
}
