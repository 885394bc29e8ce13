package main

import (
	"lbsq/internal/faults"
	"lbsq/internal/sim"
)

// workload is one configuration the benchmark runs. All three share the
// LA City density, 10 s ticks and approximate kNN acceptance; they differ
// in which layers sit on the critical path.
type workload struct {
	name string
	// worlds is how many independent worlds one run simulates, each from
	// its own seed derived from the run's seed. The simulated metrics pool
	// them: on small maps one POI layout moves the shares by more than a
	// bound can allow, and several short worlds average that out.
	worlds int
	// params builds the simulator configuration for one world seed.
	params func(seed int64) sim.Params
}

// worldParams is the configuration of each of the run's worlds.
func (wl workload) worldParams(seed int64) []sim.Params {
	out := make([]sim.Params, wl.worlds)
	for i := range out {
		out[i] = wl.params(seed*1000 + int64(i))
	}
	return out
}

var workloads = []workload{
	// Warm caches put geom clearance (the MVR boundary build) on the
	// critical path: most queries verify from peers.
	{name: "knn_warm_city", worlds: 4, params: func(seed int64) sim.Params {
		p := base(3, seed, 0.25)
		p.PrefillQueriesPerHost = 10
		return p
	}},
	// Host-count scaling: every tick moves 14.9k hosts, caches start
	// cold, and the batched tick engine runs on two workers.
	{name: "knn_cold_metro", worlds: 1, params: func(seed int64) sim.Params {
		p := base(8, seed, 1)
		p.TickWorkers = 2
		return p
	}},
	// The same layers used differently: POI writes beside reads, lossy
	// and corrupting peer links on the resilient collector, trust audits.
	// Caches start cold, so every cached region is a live query result
	// whose repair cost is steady; prefilled regions would all need
	// repair at once in the first IR window. Every peer is honest (see
	// NOTES.md for why).
	{name: "window_churn", worlds: 4, params: func(seed int64) sim.Params {
		p := base(5, seed, 0.5)
		p.Kind = sim.WindowQuery
		p.UpdateRate = 30
		p.Faults = faults.Profile{RequestLoss: 0.1, ReplyLoss: 0.1, ReplyTruncate: 0.025, ReplyCorrupt: 0.025, MaxRetries: 2}
		p.DeadlineSlots = 16
		p.BreakerThreshold = 3
		p.AuditRate = 0.2
		return p
	}},
}

// base is the shared LA City configuration on a side×side-mile map.
func base(side float64, seed int64, hours float64) sim.Params {
	p := sim.LACity().Scaled(side).WithDuration(hours)
	p.Seed = seed
	p.TimeStepSec = 10
	p.AcceptApproximate = true
	p.TickWorkers = 1
	return p
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, wl := range workloads {
		out[i] = wl.name
	}
	return out
}
