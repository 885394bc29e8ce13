package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lbsq/internal/broadcast"
	"lbsq/internal/geom"
)

// poolWorkload mirrors the perf harness fixture: a 500-POI field on a
// 32×32 area and 64 sound peers.
func poolWorkload() (geom.Point, []PeerData, *broadcast.Schedule) {
	rng := rand.New(rand.NewSource(2))
	db := make([]broadcast.POI, 500)
	for i := range db {
		db[i] = broadcast.POI{ID: int64(i), Pos: geom.Pt(rng.Float64()*32, rng.Float64()*32)}
	}
	peers := make([]PeerData, 0, 64)
	for i := 0; i < 64; i++ {
		cx, cy := 12+rng.Float64()*8, 12+rng.Float64()*8
		vr := geom.NewRect(cx, cy, cx+3+rng.Float64()*4, cy+3+rng.Float64()*4)
		pd := PeerData{VR: vr, Tainted: i%7 == 3}
		for _, p := range db {
			if vr.Contains(p.Pos) {
				pd.POIs = append(pd.POIs, p)
			}
		}
		peers = append(peers, pd)
	}
	sched, err := broadcast.NewSchedule(db, broadcast.Config{Area: geom.NewRect(0, 0, 32, 32)})
	if err != nil {
		panic(err)
	}
	return geom.Pt(16, 16), peers, sched
}

// prebuiltMVR builds a RectUnion holding the untainted VRs of peers via
// the incremental Insert path — how the tick engine materializes a
// memoized MVR.
func prebuiltMVR(peers []PeerData) *geom.RectUnion {
	u := &geom.RectUnion{}
	for _, p := range peers {
		if !p.Tainted {
			u.Insert(p.VR)
		}
	}
	return u
}

func sameNNV(t *testing.T, tag string, a, b NNVResult) {
	t.Helper()
	if a.EdgeDist != b.EdgeDist || a.InsideMVR != b.InsideMVR ||
		a.Merged != b.Merged ||
		a.Examined != b.Examined || a.TaintedCandidates != b.TaintedCandidates {
		t.Fatalf("%s: scalar fields differ:\n a=%+v\n b=%+v", tag, a, b)
	}
	if !reflect.DeepEqual(a.Heap.Entries(), b.Heap.Entries()) {
		t.Fatalf("%s: heap entries differ", tag)
	}
}

func sameSBNN(t *testing.T, tag string, a, b SBNNResult) {
	t.Helper()
	if a.Outcome != b.Outcome || a.Bounds != b.Bounds || a.Access != b.Access ||
		a.KnownRegion != b.KnownRegion || a.Merged != b.Merged ||
		a.Examined != b.Examined || a.TaintedCandidates != b.TaintedCandidates {
		t.Fatalf("%s: scalar fields differ:\n a=%+v\n b=%+v", tag, a, b)
	}
	if !reflect.DeepEqual(a.POIs, b.POIs) || !reflect.DeepEqual(a.Known, b.Known) ||
		!reflect.DeepEqual(a.Heap.Entries(), b.Heap.Entries()) {
		t.Fatalf("%s: slices differ", tag)
	}
}

func sameSBWQ(t *testing.T, tag string, a, b SBWQResult) {
	t.Helper()
	if a.Outcome != b.Outcome || a.CoveredFraction != b.CoveredFraction ||
		a.Access != b.Access || a.KnownRegion != b.KnownRegion ||
		a.Merged != b.Merged || a.Examined != b.Examined {
		t.Fatalf("%s: scalar fields differ:\n a=%+v\n b=%+v", tag, a, b)
	}
	if !reflect.DeepEqual(a.POIs, b.POIs) || !reflect.DeepEqual(a.Known, b.Known) ||
		!reflect.DeepEqual(a.ReducedWindows, b.ReducedWindows) {
		t.Fatalf("%s: slices differ", tag)
	}
}

// TestScratchMVRVariantsMatch pins the memo-key soundness the tick
// engine relies on: running a kernel against a prebuilt external MVR
// (built incrementally, in any member order) is bit-identical to the
// classic scratch path that rebuilds the MVR per query.
func TestScratchMVRVariantsMatch(t *testing.T) {
	q, peers, sched := poolWorkload()
	cfg := SBNNConfig{K: 5, Lambda: 0.5, AcceptApproximate: true, MinCorrectness: 0.5}
	win := geom.NewRect(14, 14, 18, 18)

	var s1, s2 Scratch
	mvr := prebuiltMVR(peers)

	sameNNV(t, "nnv",
		NNVScratch(&s1, q, peers, 5, 0.5),
		NNVScratchMVR(&s2, mvr, true, q, peers, 5, 0.5))
	sameSBNN(t, "sbnn",
		SBNNScratch(&s1, q, peers, cfg, sched, 99),
		SBNNScratchMVR(&s2, mvr, true, q, peers, cfg, sched, 99))
	sameSBWQ(t, "sbwq",
		SBWQScratch(&s1, q, win, peers, SBWQConfig{}, sched, 42),
		SBWQScratchMVR(&s2, mvr, true, q, win, peers, SBWQConfig{}, sched, 42))

	// Delta-chain style: morph the prebuilt MVR to a different peer
	// subset via Remove/Insert and compare against a fresh run.
	subset := make([]PeerData, 0, len(peers))
	for i, p := range peers {
		if i%3 != 0 {
			subset = append(subset, p)
		}
	}
	for i, p := range peers {
		if i%3 == 0 && !p.Tainted {
			if !mvr.Remove(p.VR) {
				t.Fatalf("delta Remove(%v) failed", p.VR)
			}
		}
	}
	sameSBNN(t, "sbnn-delta",
		SBNNScratch(&s1, q, subset, cfg, sched, 7),
		SBNNScratchMVR(&s2, mvr, true, q, subset, cfg, sched, 7))
	sameSBWQ(t, "sbwq-delta",
		SBWQScratch(&s1, q, win, subset, SBWQConfig{}, sched, 7),
		SBWQScratchMVR(&s2, mvr, true, q, win, subset, SBWQConfig{}, sched, 7))
}
