// Command lbsqbench is the simulator's benchmark. It runs one workload
// for one seed and prints every metric by name and unit, then, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 it times sim.NewWorld and back-to-back World.Step calls
// (tracing and SelfCheck off) and reports the end-to-end metrics. With
// -trace 1 it replays the workload through each layer's public
// functions with a span around every call, profiles the real Step loop,
// and reports the per-layer metrics. Both modes re-run the workload with
// SelfCheck on and fail unless its Stats equal the timed run's.
//
// Usage (from the repository root):
//
//	bash lbsqbench/run.sh --workload knn_warm_city --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Unbounded are printed but left out of the result line: their
	// definitions spread too widely across seeds, or read 0, to carry a
	// bound (see NOTES.md).
	Unbounded map[string]metric `json:"-"`
}

// stamp identifies the build and machine a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()

	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "lbsqbench: unknown workload %q (want one of %s)\n",
			*name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "lbsqbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}

	st := newStamp(wl.name, *seed, *traced)
	if b, err := json.Marshal(map[string]stamp{"stamp": st}); err == nil {
		fmt.Println(string(b))
	}

	var (
		res result
		err error
	)
	if *traced == 0 {
		res, err = runEndToEnd(wl, *seed, *seconds)
	} else {
		res, err = runPerLayer(wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsqbench:", err)
		os.Exit(1)
	}
	printMetrics(res.Metrics)
	if len(res.Unbounded) > 0 {
		fmt.Println("unbounded, not in the result line:")
		printMetrics(res.Unbounded)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func newStamp(workload string, seed int64, traced int) stamp {
	st := stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      traced,
		Revision:   "unknown",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Modified = s.Value == "true"
			}
		}
	}
	return st
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// failf records a failed output check on stderr and returns false.
func failf(format string, args ...any) bool {
	fmt.Fprintf(os.Stderr, "lbsqbench: check failed: "+format+"\n", args...)
	return false
}
