package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"slices"
	"strings"
)

// repoLayers are the repository's modules the benchmark reports on, by
// package name under secdir/internal.
var repoLayers = []string{
	"cachesim", "cuckoo", "core", "directory", "coherence", "sim", "trace",
	"attack", "leakage", "stats", "server", "store", "fleet",
}

// cpuLayers are the buckets CPU samples are attributed to: the repository's
// layers, the Go runtime, and everything else.
var cpuLayers = append(append([]string(nil), repoLayers...), "runtime", "other")

// cpuClasses is a reading of the runtime's CPU-time accounting.
type cpuClasses struct{ gc, total float64 }

// readCPUClasses reads the GC and total CPU seconds the runtime estimates.
func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuClasses
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcShare returns the share of CPU time spent on GC since base.
func (c cpuClasses) gcShare(base cpuClasses) float64 {
	if d := c.total - base.total; d > 0 {
		return (c.gc - base.gc) / d
	}
	return 0
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time. A sample belongs to the nearest frame,
// walking from the leaf toward the root, whose package is one of
// repoLayers — so time in a helper package (addr, rng, hashfn) or in an
// allocation a layer makes counts for the layer that called it. Samples
// with no such frame go to "runtime" when the leaf is in the runtime (GC
// workers, the scheduler) and to "other" otherwise (net/http, the
// benchmark's own code).
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		v := s.value
		total += v
		byLayer[attribute(p.stack(s))] += v
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return out, nil
}

// attribute maps a leaf-first stack of function names to a layer.
func attribute(stack []string) string {
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if l, ok := strings.CutPrefix(pkg, "secdir/internal/"); ok && slices.Contains(repoLayers, l) {
			return l
		}
	}
	if len(stack) > 0 {
		pkg := pkgOf(stack[0])
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime"
		}
	}
	return "other"
}

// pkgOf returns the package path of a symbol name such as
// "secdir/internal/cachesim.(*Cache[go.shape.struct {}]).Access".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold paths of their own
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// profile is the part of a pprof profile.proto message cpuShares needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location ID → function IDs, leaf first
	functions map[uint64]int64    // function ID → name string index
	strings   []string
}

// sample is one stack with its CPU time.
type sample struct {
	locs  []uint64 // location IDs, leaf first
	value int64    // the sample's value in the profile's time unit
}

// stack returns s's function names, leaf first.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, id := range s.locs {
		for _, fid := range p.locations[id] {
			if i := p.functions[fid]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes a gzipped profile.proto message with a minimal
// protobuf reader (the field numbers are those of
// github.com/google/pprof/proto/profile.proto).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var rawSamples [][]byte
	var units []uint64 // each sample type's unit, as a string index
	err = fields(raw, func(f int, _ int, _ uint64, b []byte) error {
		switch f {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var unit uint64
			if err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unit = v
				}
				return nil
			}); err != nil {
				return err
			}
			units = append(units, unit)
		case 2:
			rawSamples = append(rawSamples, b)
		case 4: // Location{id=1, line=4: Line{function_id=1}}
			var id uint64
			var fns []uint64
			if err := fields(b, func(f, _ int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(lb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // Function{id=1, name=2}
			var id uint64
			var name int64 = -1
			if err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A CPU profile has sample types (samples, count) and (cpu,
	// nanoseconds); use the nanoseconds column, falling back to the last.
	valueIdx := len(units) - 1
	for i, u := range units {
		if u < uint64(len(p.strings)) && p.strings[u] == "nanoseconds" {
			valueIdx = i
		}
	}
	for _, b := range rawSamples {
		var s sample
		var vals []int64
		if err := fields(b, func(f, wt int, v uint64, pb []byte) error {
			switch f {
			case 1:
				return varints(wt, v, pb, func(x uint64) { s.locs = append(s.locs, x) })
			case 2:
				return varints(wt, v, pb, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx >= 0 && valueIdx < len(vals) {
			s.value = vals[valueIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// varints delivers a repeated varint field, packed (wire type 2) or not.
func varints(wt int, v uint64, b []byte, fn func(uint64)) error {
	if wt == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with each field number, wire type, and either its varint value or its
// length-delimited bytes.
func fields(b []byte, fn func(field, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}
