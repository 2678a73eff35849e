package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repo modules on the benchmark's path, in the order the
// per-layer CPU metrics are reported.
var layers = []string{"sim", "mesh", "disk", "ufs", "ionode", "pfs", "prefetch", "machine", "workload"}

// Buckets for CPU that no layer owns: "other" is the remaining repo
// packages (stats, trace) and the benchmark's own code, "gc" is every
// sample with no repo frame at all (garbage collection, scavenging,
// scheduler idle).
const (
	otherBucket = "other"
	gcBucket    = "gc"
)

// bucketOf names the layer a function belongs to, or "" when the frame
// is runtime or standard-library code.
func bucketOf(fn string) string {
	if pkg, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if pkg == l {
				return l
			}
		}
		return otherBucket
	}
	if strings.HasPrefix(fn, "main.") {
		return otherBucket
	}
	return ""
}

// cpuByLayer decodes a runtime/pprof CPU profile and charges each
// sample's CPU time to the innermost repo frame on its stack (so the
// runtime's channel hand-off under a sim.Proc counts as sim); samples
// with no repo frame go to gc. It returns seconds per bucket.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without cpu value")
		}
		bucket := gcBucket
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if b := bucketOf(p.funcName[fid]); b != "" {
					bucket = b
					break stack
				}
			}
		}
		out[bucket] += float64(s.values[1]) / 1e9
	}
	return out, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64  // [samples, cpu nanoseconds]
}

// decodeProfile parses a gzipped profile.proto message with a minimal
// protobuf reader (the benchmark uses the standard library only).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]int64{}
	err = eachField(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 2: // Sample
			var s sample
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(tag int, v uint64, _ []byte) error {
						if tag == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, si, len(strs))
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's tag
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(tag int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		tag, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(tag, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b non-nil) or
// not (v).
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
