package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile is attributed by package without external tooling: a
// minimal decoder for the pprof protobuf (profile.proto) reads just the
// samples, locations, functions and string table.

// modulePrefix is the import-path prefix of the program's packages.
const modulePrefix = "gopilot/internal/"

// layerOf maps a function name to the layer charged for it: the package
// under gopilot/internal ("infra" for infra/hpc), "bench" for the
// benchmark's own code, or "" for frames outside the module.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "gopilot/perfbench"):
		return "bench"
	case strings.HasPrefix(fn, modulePrefix):
		rest := fn[len(modulePrefix):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return ""
}

// addProfile decodes a gzipped pprof CPU profile and adds each sample's
// count to the layer of its innermost module frame; samples with no
// module frame go to "runtime".
func addProfile(gz []byte, acc map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, x := range appendUints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = vals[0]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, l := range s.locs {
			for _, f := range locs[l] {
				idx := funcs[f]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if lay := layerOf(strs[idx]); lay != "" {
					layer = lay
					break walk
				}
			}
		}
		acc[layer] += s.count
	}
	return nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number and either the varint value or the
// length-delimited payload.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that arrived either as one
// varint (v) or as a packed run (b).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
