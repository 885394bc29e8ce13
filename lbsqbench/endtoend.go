package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"lbsq/internal/sim"
)

// Set-up is short next to a pass, so setup_s takes its median over at
// least minSetups NewWorld timings and at least minSetupTime of them,
// but no more than maxSetups.
const (
	minSetups    = 7
	maxSetups    = 60
	minSetupTime = time.Second
)

// pass is one timed run of a workload: NewWorld, then World.Step back to
// back until the configured duration (one caller, a closed loop).
type pass struct {
	setup    float64   // NewWorld wall seconds
	loop     float64   // Step loop wall seconds
	ticks    []float64 // per-Step wall milliseconds
	heapLive uint64    // HeapAlloc after a final GC, World still reachable
	alloc    uint64    // bytes the Step loop allocated (TotalAlloc delta)
	stats    sim.Stats
}

func timedPass(p sim.Params) (pass, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := sim.NewWorld(p)
	if err != nil {
		return pass{}, err
	}
	out := pass{setup: time.Since(t0).Seconds()}
	dur, dt := w.Params.DurationHours*3600, w.Params.TimeStepSec
	out.ticks = make([]float64, 0, int(dur/dt)+1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	last := start
	for w.Now() < dur {
		w.Step(dt)
		now := time.Now()
		out.ticks = append(out.ticks, float64(now.Sub(last))/1e6)
		last = now
	}
	out.loop = last.Sub(start).Seconds()

	out.stats = w.Stats()
	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.heapLive = ms.HeapAlloc
	runtime.KeepAlive(w)
	return out, nil
}

// setupSeconds times NewWorld alone.
func setupSeconds(p sim.Params) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := sim.NewWorld(p)
	d := time.Since(t0).Seconds()
	runtime.KeepAlive(w)
	return d, err
}

// runEndToEnd times passes over the run's worlds, in whole cycles (each
// world once per cycle), until the given number of seconds has passed,
// then checks the outputs.
func runEndToEnd(wl workload, seed int64, seconds int) (result, error) {
	ps := wl.worldParams(seed)
	k := len(ps)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var passes []pass // pass n ran world n % k
	for n := 0; n == 0 || n%k != 0 || time.Now().Before(deadline); n++ {
		p, err := timedPass(ps[n%k])
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
	}

	var setups, qps, heaps, ticks []float64
	var setupTime, alloc, queries float64
	for c := 0; c < len(passes); c += k {
		var q, loop float64
		for _, p := range passes[c : c+k] {
			q += float64(p.stats.Queries)
			loop += p.loop
		}
		qps = append(qps, q/loop)
	}
	for _, p := range passes {
		setups = append(setups, p.setup)
		setupTime += p.setup
		heaps = append(heaps, float64(p.heapLive)/(1<<20))
		ticks = append(ticks, p.ticks...)
		alloc += float64(p.alloc)
		queries += float64(p.stats.Queries)
	}
	for i := 0; len(setups) < maxSetups && (len(setups) < minSetups || setupTime < minSetupTime.Seconds()); i++ {
		d, err := setupSeconds(ps[i%k])
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d)
		setupTime += d
	}

	worldStats := make([]sim.Stats, k)
	for i := range worldStats {
		worldStats[i] = passes[i].stats
	}
	s := pooled(worldStats)
	correct := checkOutputs(ps, passes)
	res := result{Correct: correct, Metrics: map[string]metric{
		"setup_s":              {median(setups), "s"},
		"queries_per_s":        {median(qps), "1/s"},
		"tick_ms_p50":          {percentile(ticks, 50), "ms"},
		"tick_ms_p90":          {percentile(ticks, 90), "ms"},
		"heap_live_mb":         {median(heaps), "MiB"},
		"verified_pct":         {s.VerifiedPct(), "%"},
		"shared_pct":           {s.SharedPct(), "%"},
		"access_latency_slots": {s.AvgLatencySlots(), "slots"},
		"tuning_slots":         {s.AvgTuningSlots(), "slots"},
		"peer_bytes_per_query": {s.AvgPeerBytes(), "B"},
		"answered_pct":         {100 * float64(s.Queries-s.Unanswered-s.Degraded) / float64(s.Queries), "%"},
	}, Unbounded: map[string]metric{
		"alloc_bytes_per_query":     {alloc / queries, "B"},
		"mean_system_latency_slots": {s.MeanSystemLatencySlots(), "slots"},
		"failed_pct":                {100 * float64(s.Unanswered+s.Degraded) / float64(s.Queries), "%"},
	}}
	for _, p := range passes {
		res.Attempted += int64(p.stats.Queries)
		res.Failed += int64(p.stats.Unanswered + p.stats.Degraded)
	}
	fmt.Printf("worlds=%d passes=%d ticks=%d setups=%d queries_per_cycle=%d\n",
		k, len(passes), len(ticks), len(setups), s.Queries)
	return res, nil
}

// pooled sums the counters the simulated metrics are computed from over
// the run's worlds.
func pooled(stats []sim.Stats) sim.Stats {
	var out sim.Stats
	for _, s := range stats {
		out.Queries += s.Queries
		out.Verified += s.Verified
		out.Approximate += s.Approximate
		out.Broadcast += s.Broadcast
		out.Degraded += s.Degraded
		out.Unanswered += s.Unanswered
		out.LatencySlots += s.LatencySlots
		out.TuningSlots += s.TuningSlots
		out.PeerBytes += s.PeerBytes
	}
	return out
}

// checkOutputs fails the run unless every world's passes produced the
// same Stats, and a re-run of each world with SelfCheck on (and one tick
// worker, so the batched engine is compared against the serial loop)
// verifies every exact answer against the R-tree and reproduces them.
func checkOutputs(ps []sim.Params, passes []pass) bool {
	ok := true
	for i, p := range ps {
		want := masked(passes[i].stats)
		if want.Queries == 0 {
			ok = failf("world %d: no counted queries", i)
		}
		if n := want.Verified + want.Approximate + want.Broadcast + want.Degraded + want.Unanswered; n != want.Queries {
			ok = failf("world %d: outcomes sum to %d, want %d queries", i, n, want.Queries)
		}
		for n := i + len(ps); n < len(passes); n += len(ps) {
			if masked(passes[n].stats) != want {
				ok = failf("world %d: pass %d Stats differ from its first pass", i, n)
			}
		}
		got, _, err := selfCheckRun(p)
		if err != nil {
			ok = failf("world %d: %v", i, err)
			continue
		}
		if got != want {
			ok = failf("world %d: SelfCheck run (TickWorkers=1) Stats differ from the timed run (TickWorkers=%d)", i, p.TickWorkers)
		}
	}
	return ok
}

// selfCheckRun runs one world serially with SelfCheck on and returns
// its masked Stats and its configuration with the simulator's defaults
// applied, or the first ground-truth mismatch.
func selfCheckRun(p sim.Params) (sim.Stats, sim.Params, error) {
	p.TickWorkers = 1
	w, err := sim.NewWorld(p)
	if err != nil {
		return sim.Stats{}, p, err
	}
	w.SelfCheck = true
	s := masked(w.Run())
	if err := w.SelfCheckErr(); err != nil {
		return s, w.Params, fmt.Errorf("self-check: %w", err)
	}
	return s, w.Params, nil
}

// masked clears the batched engine's memo counters, which are the only
// Stats fields allowed to differ between worker counts.
func masked(s sim.Stats) sim.Stats {
	s.MVRMemoHits, s.MVRDeltaReuses = 0, 0
	return s
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, pct float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := pct / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
