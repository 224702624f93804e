package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: every sample's stack as function names, innermost frame first,
// with its sample count.
type cpuProfile struct {
	stacks  [][]string
	weights []int64
	total   int64
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes. It understands only the fields it
// needs (samples, locations, functions, the string table), which keeps the
// benchmark free of dependencies outside the standard library.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			var values []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					values = appendPacked(values, w, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Location.line
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
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
			locFns[id] = fns
		case 5: // Profile.function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
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
			fnName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, s.count)
		p.total += s.count
	}
	return p, nil
}

// inclusive returns the share of samples with any frame for which match
// returns true.
func (p *cpuProfile) inclusive(match func(fn string) bool) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	var n int64
	for i, st := range p.stacks {
		for _, fn := range st {
			if match(fn) {
				n += p.weights[i]
				break
			}
		}
	}
	return float64(n) / float64(p.total)
}

// flat returns the share of samples whose innermost frame is fn.
func (p *cpuProfile) flat(fn string) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	var n int64
	for i, st := range p.stacks {
		if len(st) > 0 && st[0] == fn {
			n += p.weights[i]
		}
	}
	return float64(n) / float64(p.total)
}

// hasPrefix matches function names by prefix.
func hasPrefix(prefix string) func(string) bool {
	return func(fn string) bool { return strings.HasPrefix(fn, prefix) }
}

// is matches one function name exactly.
func is(name string) func(string) bool {
	return func(fn string) bool { return fn == name }
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// pbFields walks the top-level fields of one protobuf message, calling fn
// with the field number, wire type, and either the varint value or the
// length-delimited payload.
func pbFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its value and length (0 on
// truncation).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendPacked appends a repeated integer field in either encoding: one
// varint per field occurrence, or a packed length-delimited run.
func appendPacked(dst []uint64, wire int, v uint64, payload []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := pbVarint(payload)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}
