package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"lbsq/internal/sim"
)

// Replay fidelity tolerances: the replay's counted queries and peers per
// query may differ from the World run's by this share, and its outcome
// shares by this many percentage points.
const (
	fidelityRel = 0.02
	fidelityPts = 2.0
)

// runPerLayer produces the per-layer metrics: it runs each of the run's
// worlds with SelfCheck on (the output check, and the figures the replay
// must reproduce), replays the first world through the layers' public
// functions with spans off and then on, and profiles the real Step loop
// over the worlds for the given number of seconds.
func runPerLayer(wl workload, seed int64, seconds int) (result, error) {
	ps := wl.worldParams(seed)
	want := make([]sim.Stats, len(ps))
	var dp sim.Params // the first world's configuration, defaults applied
	for i, p := range ps {
		s, wp, err := selfCheckRun(p)
		if err != nil {
			return result{}, fmt.Errorf("world %d: %w", i, err)
		}
		want[i] = s
		if i == 0 {
			dp = wp
		}
	}
	correct := true

	off := &tracer{}
	rOff, offWall, err := timedReplay(dp, off)
	if err != nil {
		return result{}, err
	}
	on := &tracer{on: true}
	rOn, onWall, err := timedReplay(dp, on)
	if err != nil {
		return result{}, err
	}
	for _, r := range []*replay{rOff, rOn} {
		if r.checkErr != nil {
			correct = failf("replay ground-truth check: %v", r.checkErr)
		}
	}
	if rOff.t != rOn.t {
		correct = failf("replay outcomes differ with spans on and off")
	}
	if !fidelityOK(rOn, want[0]) {
		correct = false
	}

	path := filepath.Join(".bench_build", "profiles", fmt.Sprintf("%s-seed%d.pprof", wl.name, seed))
	shares, samples, allocPerQuery, profStats, err := profileWorlds(ps, seconds, path)
	if err != nil {
		return result{}, err
	}
	for n, s := range profStats {
		if masked(s) != want[n%len(ps)] {
			correct = failf("profiled pass %d Stats (TickWorkers=%d) differ from the SelfCheck run", n, ps[0].TickWorkers)
		}
	}

	m := layerMetrics(rOn, want[0])
	selfNs := replaySelfNs(rOn)
	var selfTotal float64
	for _, l := range layers[1:] {
		selfTotal += selfNs[l]
	}
	var cpu, rep []float64
	for _, l := range layers {
		m[l+".cpu_share"] = metric{shares[l], "ratio"}
		if l == "sim" {
			continue // the replay itself stands in for sim
		}
		m[l+".replay_share"] = metric{selfNs[l] / selfTotal, "ratio"}
		cpu = append(cpu, shares[l])
		rep = append(rep, selfNs[l])
	}
	m["other.cpu_share"] = metric{shares["other"], "ratio"}
	m["runtime.cpu_share"] = metric{shares["runtime"], "ratio"}
	m["profile.samples"] = metric{float64(samples), "count"}
	m["sim.alloc_bytes_per_query"] = metric{allocPerQuery, "B"}
	m["replay.rank_agreement"] = metric{spearman(cpu, rep), "ratio"}
	m["trace.replay_on_s"] = metric{onWall, "s"}
	m["trace.replay_off_s"] = metric{offWall, "s"}
	m["trace.overhead_pct"] = metric{100 * (onWall - offWall) / offWall, "%"}
	fmt.Printf("profile written to %s\n", path)
	return result{Correct: correct, Attempted: rOn.t.queries, Metrics: m}, nil
}

func timedReplay(p sim.Params, tr *tracer) (*replay, float64, error) {
	t0 := time.Now()
	r, err := newReplay(p, tr)
	if err != nil {
		return nil, 0, err
	}
	r.run()
	return r, time.Since(t0).Seconds(), nil
}

// fidelityOK compares the replay's counted outcomes with the World's.
func fidelityOK(r *replay, want sim.Stats) bool {
	got := r.t.counted
	ok := true
	if rel(float64(got.Queries), float64(want.Queries)) > fidelityRel {
		ok = failf("replay counted %d queries, World %d", got.Queries, want.Queries)
	}
	if rel(r.countedPeersPerQuery(), want.AvgPeers()) > fidelityRel {
		ok = failf("replay peers per query %.3f, World %.3f", r.countedPeersPerQuery(), want.AvgPeers())
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"verified", got.VerifiedPct(), want.VerifiedPct()},
		{"approximate", got.ApproximatePct(), want.ApproximatePct()},
		{"broadcast", got.BroadcastPct(), want.BroadcastPct()},
	} {
		if math.Abs(c.got-c.want) > fidelityPts {
			ok = failf("replay %s share %.2f%%, World %.2f%%", c.name, c.got, c.want)
		}
	}
	return ok
}

func (r *replay) countedPeersPerQuery() float64 {
	if r.t.counted.Queries == 0 {
		return 0
	}
	return float64(r.t.countedPeers) / float64(r.t.counted.Queries)
}

func rel(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// replaySelfNs is each layer's self time in the replay: its spans minus
// the child spans they contain.
func replaySelfNs(r *replay) map[string]float64 {
	ns := func(ss ...span) float64 {
		var t int64
		for _, s := range ss {
			t += r.tr.ns[s]
		}
		return float64(t)
	}
	return map[string]float64{
		"mobility":  ns(spMobility),
		"p2p":       ns(spUpdate, spNeighbors),
		"cache":     ns(spGather, spInsert, spReconcile),
		"wire":      ns(spCodec, spIRCodec),
		"trust":     ns(spScreen) - ns(spOracle),
		"geom":      ns(spMerge, spClearance, spWindowGeom),
		"core":      ns(spCore) - ns(spOnAir, spSearchRadius),
		"broadcast": ns(spOnAir, spSearchRadius, spListenIR, spEpochSched),
		"rtree":     ns(spOracle, spEpochTree),
	}
}

// layerMetrics turns the traced replay's spans and tallies into the
// per-layer metrics, with the World's figures beside the replay's.
func layerMetrics(r *replay, want sim.Stats) map[string]metric {
	t, tr := &r.t, r.tr
	q := float64(t.queries)
	ns := func(s span) float64 { return float64(tr.ns[s]) }
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	perCall := func(ss ...span) float64 {
		var total, calls float64
		for _, s := range ss {
			total += ns(s)
			calls += float64(tr.calls[s])
		}
		return per(total, calls)
	}
	hostSteps := float64(tr.calls[spMobility]) * float64(len(r.hosts))
	coreSelf := per(ns(spCore)-ns(spOnAir)-ns(spSearchRadius), q)
	sbnn, sbwq := coreSelf, 0.0
	if r.p.Kind == sim.WindowQuery {
		sbnn, sbwq = 0, coreSelf
	}
	got := t.counted
	return map[string]metric{
		"geom.clearance_ns_per_query":        {per(ns(spClearance), q), "ns"},
		"geom.boundary_segments_per_query":   {per(float64(t.boundarySegs), q), "count"},
		"geom.merge_ns_per_query":            {per(ns(spMerge), q), "ns"},
		"geom.mvr_rects_per_query":           {per(float64(t.mvrRects), q), "count"},
		"geom.window_ns_per_query":           {per(ns(spWindowGeom), q), "ns"},
		"core.sbnn_self_ns_per_query":        {sbnn, "ns"},
		"core.sbwq_self_ns_per_query":        {sbwq, "ns"},
		"core.candidates_examined_per_query": {per(float64(t.examined), q), "count"},
		"core.peer_resolved_ratio":           {per(float64(t.verified+t.approximate), q), "ratio"},
		"broadcast.onair_ns_per_query":       {per(ns(spOnAir), q), "ns"},
		"broadcast.search_radius_ns":         {perCall(spSearchRadius), "ns"},
		"broadcast.packets_read_per_query":   {per(float64(t.packetsRead), q), "count"},
		"broadcast.skip_ratio":               {per(float64(t.packetsSkipped), float64(t.packetsRead+t.packetsSkipped)), "ratio"},
		"mobility.step_ns":                   {per(ns(spMobility), hostSteps), "ns"},
		"p2p.update_ns":                      {per(ns(spUpdate), hostSteps), "ns"},
		"p2p.neighbors_ns":                   {perCall(spNeighbors), "ns"},
		"p2p.peers_per_query":                {per(float64(t.peers), q), "count"},
		"cache.gather_ns_per_query":          {per(ns(spGather), q), "ns"},
		"cache.regions_per_query":            {per(float64(t.regionsScanned), q), "count"},
		"cache.relevant_ratio":               {per(float64(t.regionsRelevant), float64(t.regionsScanned)), "ratio"},
		"cache.insert_ns":                    {perCall(spInsert), "ns"},
		"cache.reconcile_ns_per_query":       {per(ns(spReconcile), q), "ns"},
		"cache.reconciled_regions_per_query": {per(float64(t.reconciled), q), "count"},
		"trust.screen_ns_per_query":          {per(ns(spScreen)-ns(spOracle), q), "ns"},
		"trust.audits_per_query":             {per(float64(t.audits), q), "count"},
		"trust.tainted_ratio":                {per(float64(t.tainted), float64(t.screened)), "ratio"},
		"wire.codec_ns_per_reply":            {per(ns(spCodec), float64(t.encoded)), "ns"},
		"wire.rejected_ratio":                {per(float64(t.rejected), float64(t.encoded)), "ratio"},
		"rtree.knn_ns":                       {perCall(spTruthKNN), "ns"},
		"rtree.window_ns":                    {perCall(spTruthWindow, spOracle), "ns"},
		"setup.schedule_build_ns":            {ns(spSetupSched), "ns"},
		"setup.rtree_bulk_ns":                {ns(spSetupTree), "ns"},
		"setup.prefill_ns":                   {ns(spSetupPrefill), "ns"},

		"replay.queries":         {float64(got.Queries), "count"},
		"replay.verified_pct":    {got.VerifiedPct(), "%"},
		"replay.approximate_pct": {got.ApproximatePct(), "%"},
		"replay.broadcast_pct":   {got.BroadcastPct(), "%"},
		"replay.peers_per_query": {r.countedPeersPerQuery(), "count"},
		"replay.exact_checked":   {float64(t.exactChecked), "count"},
		"world.queries":          {float64(want.Queries), "count"},
		"world.verified_pct":     {want.VerifiedPct(), "%"},
		"world.approximate_pct":  {want.ApproximatePct(), "%"},
		"world.broadcast_pct":    {want.BroadcastPct(), "%"},
		"world.peers_per_query":  {want.AvgPeers(), "count"},
	}
}

// spearman is the rank correlation of two equally long samples (ties
// take their mean rank).
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var num, da, db float64
	for i := range ra {
		num += (ra[i] - ma) * (rb[i] - mb)
		da += (ra[i] - ma) * (ra[i] - ma)
		db += (rb[i] - mb) * (rb[i] - mb)
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		for k := i; k <= j; k++ {
			out[idx[k]] = float64(i+j)/2 + 1
		}
		i = j + 1
	}
	return out
}
