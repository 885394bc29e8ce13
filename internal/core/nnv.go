package core

import (
	"math"
	"slices"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// PeerData is one verified region received from a peer: the MBR the peer
// guarantees complete knowledge of, and every cached POI inside it. A
// peer with several cached regions contributes one PeerData per region.
//
// Ownership: the POIs slice is borrowed from the caller (in the simulator
// it aliases live cache storage). The core algorithms never mutate it and
// never retain it — every candidate is copied into algorithm-owned
// buffers before the call returns — so callers may reuse or mutate the
// peer slices freely between queries. TestCoreDoesNotRetainPeerSlices
// pins this contract.
type PeerData struct {
	VR   geom.Rect
	POIs []broadcast.POI
	// Tainted marks a contribution from an untrusted peer (internal/trust
	// demoted it: the peer is unvouched, conflicted, or paroled). A
	// tainted VR is excluded from the merged verified region — Lemma 3.1
	// must not rest on an unaudited claim — and its POIs enter
	// verification as permanently-unverified candidates on the Lemma 3.2
	// probabilistic path. Callers supplying tainted peers must keep the
	// tainted and untainted POI ID sets disjoint (trust.Screen's
	// cross-pool dedup enforces this); core's candidate dedup is
	// per-pool. The zero value (untainted) reproduces seed behavior
	// exactly.
	Tainted bool
}

// Scratch holds the reusable per-client buffers of the query hot path:
// the merged verified region, the result heap, and the candidate/result
// slices. A Scratch reaches a zero-allocation steady state after a few
// queries (buffers grow to the working-set high-water mark and are then
// reused).
//
// Results returned by the *Scratch functions alias the scratch: Heap,
// MVR, and POIs are valid only until the next call with the same Scratch.
// Known/KnownRegion are always freshly allocated — callers cache them.
// A Scratch must not be shared between goroutines.
type Scratch struct {
	mvr         geom.RectUnion
	heap        Heap
	nearest     []candidate // NNV's k nearest untainted candidates
	nearTainted []candidate // NNV's distinct tainted candidates
	candidates  []broadcast.POI
	poiBuf      []broadcast.POI
}

// NNVResult bundles the outputs of the nearest-neighbor verification
// method.
type NNVResult struct {
	// Heap holds up to k candidates in ascending distance order with
	// their verification status, correctness probabilities, and
	// surpassing ratios.
	Heap *Heap
	// MVR is the merged verified region of all peers.
	MVR *geom.RectUnion
	// EdgeDist is min(‖q, e_s‖, d_far): the distance from q to the
	// nearest boundary edge of the MVR, capped at d_far, the distance of
	// the farthest heap entry (zero for an empty heap). Every entry is
	// verified against it exactly as against the uncapped ‖q, e_s‖.
	// Zero when q lies outside the MVR (no verification possible).
	EdgeDist float64
	// InsideMVR reports whether q lies inside the MVR (the precondition
	// of Lemma 3.1).
	InsideMVR bool
	// Merged is the number of peer verified regions merged into the MVR
	// and Examined the number of candidates pushed through Lemma 3.1/3.2
	// verification — the deterministic work units of the mvr_merge and
	// nnv_verify phase spans (internal/metrics). Tainted regions are not
	// merged, so Merged counts only untainted peers.
	Merged   int
	Examined int
	// TaintedCandidates is the number of distinct candidates contributed
	// by tainted peers (zero on the seed path).
	TaintedCandidates int
}

// NNV is Algorithm 1: merge the peers' verified regions, rank their
// cached POIs by distance to q, and verify each candidate o against
// Lemma 3.1 (o is a guaranteed nearest neighbor when ‖q,o‖ ≤ ‖q,e_s‖ and
// q lies inside the MVR). Unverified candidates are annotated with the
// Lemma 3.2 correctness probability computed from the exact area of their
// unverified region, using lambda as the POI density.
//
// NNV runs on pooled scratch and copies the aliasing parts (Heap, MVR)
// out before returning, so the result is caller-owned while the cold
// path stays near the warm path's allocation profile.
func NNV(q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	s := GetScratch()
	res := NNVScratch(s, q, peers, k, lambda)
	res.Heap = cloneHeap(res.Heap)
	res.MVR = cloneMVR(res.MVR)
	PutScratch(s)
	return res
}

// NNVScratch is NNV running on caller-owned scratch: the zero-allocation
// hot-path variant used by the simulator's per-world query loop. The
// returned Heap and MVR alias the scratch (see Scratch).
func NNVScratch(s *Scratch, q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	return NNVScratchMVR(s, &s.mvr, false, q, peers, k, lambda)
}

// NNVScratchMVR is NNVScratch with the merged verified region held in a
// caller-supplied RectUnion instead of the Scratch. With prebuilt=false
// it resets mvr and merges the untainted peer regions into it exactly as
// NNVScratch does. With prebuilt=true it assumes mvr already holds the
// untainted VR multiset of peers (the tick engine's memoized,
// incrementally maintained MVR) and skips the rebuild; every derived
// query on the union is a pure function of that multiset, so the result
// is bit-identical either way. The returned MVR aliases mvr.
func NNVScratchMVR(s *Scratch, mvr *geom.RectUnion, prebuilt bool, q geom.Point, peers []PeerData, k int, lambda float64) NNVResult {
	if !prebuilt {
		mvr.Reset()
	}
	// Only the first k distinct candidates of each pool can reach the
	// heap, so the untainted pool keeps just those (k ≤ 0 never fills the
	// heap and keeps every distinct candidate). The tainted pool is
	// selected whole so its distinct count stays exact; it is empty on
	// honest runs.
	keep := k
	if keep <= 0 {
		keep = math.MaxInt
	}
	merged := 0
	for _, p := range peers {
		// A tainted VR must not strengthen Lemma 3.1, but its POIs may
		// still compete as probabilistic candidates.
		if !p.Tainted {
			if !prebuilt {
				mvr.Add(p.VR)
			}
			merged++
		}
	}
	s.nearest = selectNearest(s.nearest, peers, false, q, keep)
	s.nearTainted = selectNearest(s.nearTainted, peers, true, q, math.MaxInt)
	cands, taints := dropRepeatedIDs(s.nearest), dropRepeatedIDs(s.nearTainted)
	res := NNVResult{
		Heap:              &s.heap,
		MVR:               mvr,
		Merged:            merged,
		TaintedCandidates: len(taints),
	}

	// Pass 1: fill the heap by merge-walking the two sorted pools in
	// global (distance², ID) order. With no tainted peers this reduces
	// exactly to a walk of cands — the seed loop, bit for bit.
	s.heap.Reset(k)
	i, j := 0, 0
	for (i < len(cands) || j < len(taints)) && !res.Heap.Full() {
		pickTainted := i >= len(cands) ||
			(j < len(taints) && taints[j].before(&cands[i]))
		var c candidate
		if pickTainted {
			c = taints[j]
			j++
		} else {
			c = cands[i]
			i++
		}
		res.Examined++
		res.Heap.add(Entry{POI: c.poi, Dist: c.poi.Pos.Dist(q), Tainted: pickTainted})
	}

	// Pass 2: one clearance, capped at the farthest entry. Every entry
	// has d ≤ limit, and for such d, d ≤ min(‖q,e_s‖, limit) exactly when
	// d ≤ ‖q,e_s‖, so the capped value gives every verdict the full
	// clearance would while building only the MVR boundary within limit
	// of q.
	limit, _ := res.Heap.LastDist()
	res.EdgeDist, res.InsideMVR = mvr.ClearanceWithin(q, limit)
	lastVerified := 0.0
	hasVerified := false
	for x := range s.heap.entries {
		e := &s.heap.entries[x]
		if !e.Tainted && res.InsideMVR && e.Dist <= res.EdgeDist {
			e.Verified = true
			e.Correctness = 1
			lastVerified = e.Dist
			hasVerified = true
		} else {
			// Unverified (or tainted — untrusted candidates can never be
			// verified regardless of geometry): the candidate's
			// unverified region is the part of its distance disk not
			// covered by the (trusted) MVR.
			u := mvr.UnverifiedArea(q, e.Dist)
			e.Correctness = CorrectnessProbability(lambda, u)
			if hasVerified && lastVerified > 0 {
				e.Surpassing = e.Dist / lastVerified
			}
		}
	}
	return res
}

// candidate is a peer POI keyed by its squared distance to the query
// point; NNV ranks candidates by (d2, ID).
type candidate struct {
	d2  float64
	poi broadcast.POI
}

// before reports whether a precedes b: ascending distance² to q with
// the POI ID as the tiebreak — the order sortCandidates establishes.
func (a *candidate) before(b *candidate) bool {
	return a.d2 < b.d2 || (a.d2 == b.d2 && a.poi.ID < b.poi.ID)
}

// selectNearest refills best's storage from the POIs of the peers whose
// Tainted flag equals tainted. best is a sorted run of distinct
// (distance², ID) keys in which an entry counts as kept when its ID
// differs from its predecessor's; dropRepeatedIDs then leaves exactly
// the kept entries, which are the first limit entries of
// sortCandidates + dedupSortedCandidates over the pool — without sorting
// the pool:
//
//   - A duplicate of a held POI meets its equal key and is dropped there
//     (same POI ⇒ same position ⇒ same key).
//   - An ID can still arrive at two positions (a moved POI in a stale
//     region, a byzantine shift). The sort keeps the farther copy only
//     when another ID lies between the two, so best keeps both copies
//     and the final neighbours decide.
//   - Inserting a key never lowers the number of kept entries before
//     any point, so best is cut right after its limit-th kept entry.
//     Once it holds limit kept entries, a candidate that does not
//     precede its last entry is rejected with one comparison.
func selectNearest(best []candidate, peers []PeerData, tainted bool, q geom.Point, limit int) []candidate {
	best = best[:0]
	full := false
	for _, pd := range peers {
		if pd.Tainted != tainted {
			continue
		}
		for _, p := range pd.POIs {
			c := candidate{p.Pos.DistSq(q), p}
			if full && !c.before(&best[len(best)-1]) {
				continue
			}
			i := len(best)
			for i > 0 && c.before(&best[i-1]) {
				i--
			}
			if i > 0 && !best[i-1].before(&c) {
				continue // equal key: a duplicate
			}
			best = slices.Insert(best, i, c)
			if n := keptPrefix(best, limit); n > 0 {
				best, full = best[:n], true
			}
		}
	}
	return best
}

// keptPrefix returns the length of the shortest prefix of best holding
// limit kept entries (see selectNearest), or 0 when best holds fewer.
func keptPrefix(best []candidate, limit int) int {
	if len(best) < limit {
		return 0
	}
	kept := 0
	for i := range best {
		if i == 0 || best[i].poi.ID != best[i-1].poi.ID {
			if kept++; kept == limit {
				return i + 1
			}
		}
	}
	return 0
}

// dropRepeatedIDs removes, in place, every entry whose ID equals its
// predecessor's — the dedupSortedCandidates rule.
func dropRepeatedIDs(best []candidate) []candidate {
	return slices.CompactFunc(best, func(a, b candidate) bool { return a.poi.ID == b.poi.ID })
}
