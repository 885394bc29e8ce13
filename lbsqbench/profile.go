package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lbsq/internal/sim"
)

// layers are the repository's modules the benchmark attributes CPU to,
// in report order; "other" holds the remaining lbsq packages and
// "runtime" the samples with no lbsq frame at all (GC workers, the
// scheduler). See attribute for how a sample is assigned.
var layers = []string{"sim", "mobility", "p2p", "cache", "wire", "trust", "geom", "core", "broadcast", "rtree"}

const (
	phaseKey   = "lbsqbench_phase"
	phaseSetup = "setup"
	phaseStep  = "step"
)

// profileWorlds profiles back-to-back passes of the real World.Step loop
// over the worlds, in whole cycles, for at least the given number of
// seconds and returns each layer's share of the Step loop's CPU, the
// sample count, the bytes the Step loops allocated per counted query,
// and every pass's Stats (pass n ran world n % len(ps)). Set-up carries its own label and is excluded; samples
// with no label (GC workers, the scheduler) stay in, as runtime.
// The raw profile is written to path for go tool pprof.
func profileWorlds(ps []sim.Params, seconds int, path string) (map[string]float64, int, float64, []sim.Stats, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, 0, nil, err
	}
	var alloc, queries float64
	var stats []sim.Stats
	var runErr error
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n == 0 || n%len(ps) != 0 || time.Now().Before(deadline); n++ {
		var w *sim.World
		pprof.Do(context.Background(), pprof.Labels(phaseKey, phaseSetup), func(context.Context) {
			w, runErr = sim.NewWorld(ps[n%len(ps)])
		})
		if runErr != nil {
			break
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		pprof.Do(context.Background(), pprof.Labels(phaseKey, phaseStep), func(context.Context) {
			stats = append(stats, w.Run())
		})
		runtime.ReadMemStats(&ms)
		alloc += float64(ms.TotalAlloc - alloc0)
		queries += float64(stats[len(stats)-1].Queries)
	}
	pprof.StopCPUProfile()
	if runErr != nil {
		return nil, 0, 0, nil, runErr
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbsqbench: writing profile:", err)
		}
	}
	shares, samples, err := layerShares(buf.Bytes())
	return shares, samples, alloc / queries, stats, err
}

// layerShares decodes a gzipped pprof profile and splits its CPU time
// over the layers. Samples labelled with another phase are dropped.
func layerShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]float64{}
	var total float64
	samples := 0
	var frames []string
	for _, s := range prof.samples {
		if s.phase != 0 && prof.str(s.phase) != phaseStep {
			continue
		}
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		frames = frames[:0]
		for _, locID := range s.locs {
			for _, fn := range prof.locs[locID] {
				frames = append(frames, prof.str(prof.funcs[fn]))
			}
		}
		layer := attribute(frames)
		byLayer[layer] += v
		total += v
		samples++
	}
	if total == 0 {
		return nil, 0, errors.New("CPU profile holds no samples")
	}
	out := map[string]float64{}
	for _, l := range append(append([]string(nil), layers...), "other", "runtime") {
		out[l] = byLayer[l] / total
	}
	return out, samples, nil
}

// attribute assigns one sample, given its frames leaf first, to a layer
// at the same call boundaries the replay's spans use, so the profile
// and the replay's self times can be ranked against each other. A
// sample belongs to the outermost layer the simulator called into,
// with everything that layer calls (standard library and runtime
// included), except where the replay times a nested call as a span of
// its own: the R-tree oracle inside trust.Screen, the on-air search
// inside the core query, and the MVR build and clearance inside core.
// Samples that enter no layer belong to sim, another lbsq package, or
// the runtime, by their innermost such frame.
func attribute(frames []string) string {
	entry := -1
	for i := len(frames) - 1; i >= 0; i-- {
		if l := layerOf(frames[i]); l != "" && l != "sim" && l != "other" {
			entry = i
			break
		}
	}
	if entry < 0 {
		for _, f := range frames {
			if l := layerOf(f); l != "" {
				return l
			}
		}
		return "runtime"
	}
	e := layerOf(frames[entry])
	for _, f := range frames[:entry] {
		switch l := layerOf(f); {
		case e == "trust" && l == "rtree":
			return l
		case e == "core" && l == "broadcast":
			return l
		case e == "core" && l == "geom" && splitFromCore(f):
			return l
		}
	}
	return e
}

// splitFromCore reports the geom calls the replay makes itself before
// handing core a prebuilt MVR.
func splitFromCore(fn string) bool {
	for _, m := range []string{"RectUnion).Clearance", "RectUnion).Add", "RectUnion).Reset"} {
		if strings.Contains(fn, m) {
			return true
		}
	}
	return false
}

// layerOf maps a function name to its layer, "other" for another lbsq
// package, or "" for code outside the repository's packages.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "lbsq/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// profile is the part of a pprof profile the layer split needs.
type profile struct {
	strings []string
	funcs   map[uint64]int64    // function id → name string index
	locs    map[uint64][]uint64 // location id → function ids, innermost inlined first
	samples []sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
	phase  int64 // string index of the phase label value, 0 if unlabelled
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the fields of perftools.profiles.Profile it needs:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	var sampleMsgs [][]byte
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			sampleMsgs = append(sampleMsgs, msg)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, m []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(m, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	phaseIdx := int64(-1)
	for i, s := range p.strings {
		if s == phaseKey {
			phaseIdx = int64(i)
		}
	}
	for _, msg := range sampleMsgs {
		var s sample
		err := eachField(msg, func(num int, v uint64, m []byte) error {
			switch num {
			case 1:
				if m != nil {
					return eachVarint(m, func(x uint64) { s.locs = append(s.locs, x) })
				}
				s.locs = append(s.locs, v)
			case 2:
				if m != nil {
					return eachVarint(m, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				s.values = append(s.values, int64(v))
			case 3:
				var key, str int64
				err := eachField(m, func(num int, v uint64, _ []byte) error {
					switch num {
					case 1:
						key = int64(v)
					case 2:
						str = int64(v)
					}
					return nil
				})
				if err == nil && key == phaseIdx {
					s.phase = str
				}
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks a protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes (msg is nil for
// varint and fixed-width fields).
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", key&7)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
