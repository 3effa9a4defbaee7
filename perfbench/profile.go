package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU-profile sample: its stack as function names, leaf
// first with inlined frames expanded, and the CPU time it stands for.
type cpuSample struct {
	frames []string
	nanos  int64
}

// parseCPUProfile decodes the gzipped protobuf that runtime/pprof writes,
// keeping only what attribution needs: each sample's stack and CPU
// nanoseconds. The standard library has no public decoder for the format,
// and the module takes no dependencies, so the few messages used are
// decoded here by field number (see profile.proto in the pprof project).
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sampleRec struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []sampleRec
		sampleTypes [][2]int64              // (type, unit) string indexes
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id → name string index
		strs        []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, t)
		case 2: // sample
			var s sampleRec
			if err := eachField(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, pb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.frames = append(cs.frames, str(funcNames[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and payload: the value for varint and fixed fields,
// the bytes for length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuAttribution splits a profile's CPU time over the catalogue's layers.
type cpuAttribution struct {
	// total is the CPU time of every sample.
	total int64
	// cum is each layer's cumulative CPU: samples with at least one frame
	// in the layer, counted once per sample.
	cum map[string]int64
	// self is each layer's self CPU: samples whose innermost attributed
	// frame is in the layer. Frames of packages no layer claims (gpu,
	// vclock, workload, metrics and the standard library) are transparent
	// and charge the nearest attributed caller; samples with no attributed
	// frame at all belong to "runtime" (GC workers, the scheduler). The
	// self values therefore partition total exactly.
	self map[string]int64
	// funcs is the cumulative CPU of each function-set metric.
	funcs map[string]int64
}

// programPrefix is the import path prefix of the program's packages.
const programPrefix = "fastrl/internal/"

// attribute charges every sample to layers, using each layer's package
// list and each metric's function-name prefixes from the catalogue.
func attribute(samples []cpuSample, cat *catalogue) cpuAttribution {
	pkgLayer := map[string]string{}
	type funcMetric struct {
		name     string
		prefixes []string
	}
	var fms []funcMetric
	for _, l := range cat.Layers {
		for _, p := range l.Packages {
			if p == "main" {
				pkgLayer["main"] = l.Module
			} else {
				pkgLayer[programPrefix+p] = l.Module
			}
		}
		for _, m := range l.Metrics {
			if len(m.Functions) > 0 {
				fms = append(fms, funcMetric{m.Name, m.Functions})
			}
		}
	}
	a := cpuAttribution{cum: map[string]int64{}, self: map[string]int64{}, funcs: map[string]int64{}}
	for _, s := range samples {
		a.total += s.nanos
		seen := map[string]bool{}
		self := ""
		for _, f := range s.frames {
			layer := pkgLayer[funcPackage(f)]
			if layer == "" {
				continue
			}
			if self == "" {
				self = layer
			}
			if !seen[layer] {
				seen[layer] = true
				a.cum[layer] += s.nanos
			}
		}
		if self == "" {
			self = "runtime"
		}
		a.self[self] += s.nanos
		for _, fm := range fms {
			if stackHasPrefix(s.frames, fm.prefixes) {
				a.funcs[fm.name] += s.nanos
			}
		}
	}
	return a
}

// funcPackage returns the import path of a pprof function name such as
// "fastrl/internal/model.(*Table).Accumulate" or "main.main.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func stackHasPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}
