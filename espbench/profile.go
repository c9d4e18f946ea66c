package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets of the CPU split, in report order.
var cpuLayers = []string{
	"vm_exec", "vm_heap", "vm_encode", "vm_snapshot", "vmmc_bridge",
	"sim", "nic", "mc_visited", "mc_por", "mc_search",
	"runtime_gc", "runtime_malloc", "other",
}

// layerFiles maps source files — repository paths, and Go runtime files
// under runtime/ — to CPU layers. A profile sample is charged to the
// innermost frame whose file is listed; a sample with no listed frame
// goes to "other". The benchmark's test fails when a listed file no
// longer exists or a layer package gains a file missing here.
var layerFiles = map[string]string{
	"internal/vm/exec.go":       "vm_exec",
	"internal/vm/execfused.go":  "vm_exec",
	"internal/vm/comm.go":       "vm_exec", // rendezvous
	"internal/vm/external.go":   "vm_exec", // external-channel polls
	"internal/vm/choice.go":     "vm_exec",
	"internal/vm/machine.go":    "vm_exec",
	"internal/vm/compiled.go":   "vm_exec",
	"internal/vm/cost.go":       "vm_exec",
	"internal/vm/engine.go":     "vm_exec",
	"internal/vm/fault.go":      "vm_exec",
	"internal/vm/obs.go":        "vm_exec",
	"internal/vm/value.go":      "vm_heap",
	"internal/vm/byid.go":       "vm_heap",
	"internal/vm/encode.go":     "vm_encode",
	"internal/vm/savedstate.go": "vm_snapshot",

	"internal/vmmc/espfw.go":  "vmmc_bridge",
	"internal/vmmc/vmmc.go":   "vmmc_bridge",
	"internal/vmmc/orig.go":   "vmmc_bridge",
	"internal/vmmc/verify.go": "vmmc_bridge",
	"internal/vmmc/espsrc.go": "vmmc_bridge",

	"internal/sim/sim.go": "sim",
	"internal/nic/nic.go": "nic",

	"internal/mc/shard.go":    "mc_visited",
	"internal/mc/por.go":      "mc_por",
	"internal/mc/mc.go":       "mc_search",
	"internal/mc/frontier.go": "mc_search",
	"internal/mc/progress.go": "mc_search",

	"runtime/mgc.go":         "runtime_gc",
	"runtime/mgcmark.go":     "runtime_gc",
	"runtime/mgcsweep.go":    "runtime_gc",
	"runtime/mgcwork.go":     "runtime_gc",
	"runtime/mgcpacer.go":    "runtime_gc",
	"runtime/mgclimit.go":    "runtime_gc",
	"runtime/mgcscavenge.go": "runtime_gc",
	"runtime/mgcstack.go":    "runtime_gc",
	"runtime/mwbbuf.go":      "runtime_gc",

	"runtime/malloc.go":           "runtime_malloc",
	"runtime/mcache.go":           "runtime_malloc",
	"runtime/mcentral.go":         "runtime_malloc",
	"runtime/mheap.go":            "runtime_malloc",
	"runtime/mfixalloc.go":        "runtime_malloc",
	"runtime/msize.go":            "runtime_malloc",
	"runtime/mpagealloc.go":       "runtime_malloc",
	"runtime/mpagealloc_64bit.go": "runtime_malloc",
	"runtime/mpagecache.go":       "runtime_malloc",
}

// layerOf returns the layer of a profile file name (an absolute path, or a
// module path when built with -trimpath), or "".
func layerOf(file string) string {
	file = "/" + strings.ReplaceAll(file, "\\", "/")
	for {
		if l, ok := layerFiles[file[1:]]; ok {
			return l
		}
		i := strings.IndexByte(file[1:], '/')
		if i < 0 {
			return ""
		}
		file = file[i+1:]
	}
}

// cpuSplit reads a gzipped pprof CPU profile and returns each layer's
// share of the samples. The shares sum to 1.
func cpuSplit(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		layer := "other"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost inlined frame first
				if l := layerOf(p.funcFile[fn]); l != "" {
					layer = l
					break frames
				}
			}
		}
		counts[layer] += float64(s.count)
		total += float64(s.count)
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = ratio(counts[l], total)
	}
	if total == 0 {
		out["other"] = 1
	}
	return out, nil
}

// profile is the part of a pprof profile the split needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcFile map[uint64]string   // function id -> source file
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the profile.proto fields the split uses: samples
// (location ids, first value), locations (lines' function ids),
// functions (file name) and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcFile: map[uint64]string{}}
	var strs []string
	fileIdx := map[uint64]uint64{} // function id -> string index
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // Function
			var id, file uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					file = v
				}
				return nil
			})
			fileIdx[id] = file
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, i := range fileIdx {
		if i >= uint64(len(strs)) {
			return nil, fmt.Errorf("string index %d out of range", i)
		}
		p.funcFile[id] = strs[i]
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field number and
// its varint value (wire type 0) or bytes (wire type 2). Fixed-width
// fields are skipped.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field: a single value (b nil)
// or a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
