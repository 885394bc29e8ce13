//go:build !race

// Steady-state allocation assertions for the scratch-based query hot
// path. Excluded under the race detector: -race instruments allocations
// and makes AllocsPerRun counts meaningless.

package core

import (
	"math/rand"
	"testing"

	"lbsq/internal/geom"
)

// TestNNVScratchZeroAllocs pins the core zero-allocation contract: a
// warm Scratch answers NNV without touching the heap allocator. The sim
// loop runs this path once per query over tens of thousands of hosts,
// so any regression here fails the build rather than silently costing
// GC time.
func TestNNVScratchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := benchDB(rng, 500)
	peers := benchPeers(rng, db, 64)
	q := geom.Pt(16, 16)
	var s Scratch
	NNVScratch(&s, q, peers, 5, 0.5) // warm the scratch to capacity
	NNVScratch(&s, q, peers, 5, 0.5)
	allocs := testing.AllocsPerRun(50, func() {
		NNVScratch(&s, q, peers, 5, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("warm NNVScratch allocates %.1f times per run, want 0", allocs)
	}
}

// TestSBNNScratchSteadyAllocs bounds the warm SBNN path. A verified
// answer still allocates its KnownRegion POI copy (callers hand it to
// their cache, which retains it — see the PeerData contract), so the
// bound is the fresh result copy, not zero.
func TestSBNNScratchSteadyAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := benchDB(rng, 500)
	vr := geom.NewRect(8, 8, 24, 24)
	pd := PeerData{VR: vr}
	for _, p := range db {
		if vr.Contains(p.Pos) {
			pd.POIs = append(pd.POIs, p)
		}
	}
	peers := []PeerData{pd}
	cfg := SBNNConfig{K: 5, Lambda: 0.5}
	q := geom.Pt(16, 16)
	var s Scratch
	res := SBNNScratch(&s, q, peers, cfg, nil, 0)
	if res.Outcome != OutcomeVerified {
		t.Fatalf("outcome %v, want verified", res.Outcome)
	}
	allocs := testing.AllocsPerRun(50, func() {
		SBNNScratch(&s, q, peers, cfg, nil, 0)
	})
	// One allocation for the fresh Known slice is the by-design floor.
	if allocs > 2 {
		t.Fatalf("warm verified SBNNScratch allocates %.1f times per run, want <= 2", allocs)
	}
}

// TestNNVColdAllocGate gates the pooled cold-start path: once the
// scratch pool is warm, a cold-entry NNV call must stay within the
// copy-out allocations (heap clone, MVR clone) instead of the dozens a
// fresh Scratch used to cost.
func TestNNVColdAllocGate(t *testing.T) {
	q, peers, _ := poolWorkload()
	for i := 0; i < 4; i++ {
		NNV(q, peers, 5, 0.5) // warm the pool
	}
	avg := testing.AllocsPerRun(200, func() {
		NNV(q, peers, 5, 0.5)
	})
	t.Logf("nnv cold path: %.2f allocs/op", avg)
	// Expected steady state is 4 (Heap struct + entries, RectUnion
	// struct + rects); 8 leaves headroom for a GC emptying the pool
	// mid-measurement without letting the old 52-alloc profile back in.
	if avg > 8 {
		t.Errorf("pooled NNV cold path costs %.1f allocs/op, want <= 8", avg)
	}
}
