package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"lbsq/internal/geom"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"runtime only", []string{"runtime.gcBgMarkWorker"}, "runtime"},
		{"sim own code", []string{"runtime.mallocgc", "lbsq/internal/sim.(*World).Step"}, "sim"},
		{"entry layer keeps callees",
			[]string{"sort.Sort", "lbsq/internal/geom.(*RectUnion).UnverifiedArea", "lbsq/internal/core.NNVScratchMVR", "lbsq/internal/sim.(*World).runKNNQuery"}, "core"},
		{"clearance split from core",
			[]string{"lbsq/internal/geom.(*RectUnion).BoundaryDist", "lbsq/internal/geom.(*RectUnion).Clearance", "lbsq/internal/core.NNVScratchMVR", "lbsq/internal/sim.(*World).runKNNQuery"}, "geom"},
		{"on-air split from core",
			[]string{"lbsq/internal/broadcast.(*Schedule).KNNWithBounds", "lbsq/internal/core.SBNNScratchMVR", "lbsq/internal/sim.(*World).runKNNQuery"}, "broadcast"},
		{"oracle split from trust",
			[]string{"lbsq/internal/rtree.(*Tree).Window", "lbsq/internal/sim.(*World).poisInRect", "lbsq/internal/trust.(*Engine).Screen", "lbsq/internal/sim.(*World).trustScreen"}, "rtree"},
		{"worker goroutine root", []string{"lbsq/internal/core.sortCandidates", "lbsq/internal/sim.(*World).executeBatch.func1", "lbsq/internal/sweep.Run.func1"}, "core"},
		{"other package", []string{"lbsq/internal/faults.(*Injector).RequestHeard", "lbsq/internal/sim.(*World).collectPeers"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestLayerSharesReadsRealProfile profiles a loop of geom clearance
// calls and checks the decoder finds the samples and charges them to
// geom.
func TestLayerSharesReadsRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	u := geom.NewRectUnion()
	var sink float64
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		u.Reset()
		for i := 0; i < 64; i++ {
			x := float64(i%8) * 0.9
			y := float64(i/8) * 0.9
			u.Add(geom.NewRect(x, y, x+1, y+1))
		}
		d, _ := u.Clearance(geom.Pt(3.3, 3.7))
		sink += d
	}
	pprof.StopCPUProfile()
	shares, samples, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || shares["geom"] < 0.5 {
		t.Fatalf("samples=%d geom share=%v, want most samples in geom (sink %v)", samples, shares["geom"], sink)
	}
	var total float64
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestPercentileAndSpearman(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := percentile(xs, 50); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if got := spearman([]float64{1, 2, 3}, []float64{10, 20, 30}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spearman same order = %v, want 1", got)
	}
	if got := spearman([]float64{1, 2, 3}, []float64{30, 20, 10}); math.Abs(got+1) > 1e-12 {
		t.Errorf("spearman reversed = %v, want -1", got)
	}
	if got := ranks([]float64{0, 5, 0}); got[0] != 1.5 || got[2] != 1.5 || got[1] != 3 {
		t.Errorf("ranks with ties = %v", got)
	}
}
