package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped profile.proto;
// this file decodes just the parts the layer buckets need (samples,
// locations, functions, strings) with a minimal protobuf reader, since
// the module builds from the standard library alone.

// layerBuckets lists every bucket a CPU sample can land in, in report
// order. The first nine are the layers the ledger names; the rest are
// the repo's remaining packages, the benchmark itself, GC, and other.
var layerBuckets = []string{
	"jvm", "cache", "cpu", "hpc", "kernel", "oprofile", "core", "record", "fleet",
	"viprof", "image", "harness", "workload", "addr", "xen", "bench",
	"runtime.gc", "other",
}

// gcFrames are runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work (background marking,
// assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.gcStart", "runtime.deductSweepCredit",
	"runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim",
}

// bucketOf assigns one sample's stack (leaf first) to a bucket. A leaf
// in a repo package is charged to that package. A leaf in the runtime
// or standard library (map lookups, allocation, copying) is charged to
// the nearest repo frame above it, so a layer's self time includes the
// library work it asks for; GC work is its own bucket. Stacks with no
// repo frame and no GC frame are "other".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime.gc"
			}
		}
	}
	for _, fn := range stack {
		switch pkg := funcPackage(fn); {
		case pkg == "main" || pkg == "viprof/perfbench":
			return "bench"
		case pkg == "viprof":
			return "viprof"
		case strings.HasPrefix(pkg, "viprof/internal/"):
			layer, _, _ := strings.Cut(strings.TrimPrefix(pkg, "viprof/internal/"), "/")
			for _, b := range layerBuckets {
				if b == layer {
					return layer
				}
			}
			return "other"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "viprof/internal/cache.(*Cache).probe" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares decodes a gzipped CPU profile and returns each bucket's
// share of sampled CPU time in percent, plus the sample count.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strs    []string
		locLine = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funName = make(map[uint64]int64)    // function id -> name string index
	)
	err = protoFields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					for _, x := range appendVarints(nil, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	weights := make(map[string]float64)
	var total float64
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locLine[loc] {
				if idx := funName[fid]; idx >= 0 && int(idx) < len(strs) {
					stack = append(stack, strs[idx])
				}
			}
		}
		weights[bucketOf(stack)] += w
		total += w
	}
	shares := make(map[string]float64, len(layerBuckets))
	for _, b := range layerBuckets {
		if total > 0 {
			shares[b] = 100 * weights[b] / total
		} else {
			shares[b] = 0
		}
	}
	return shares, len(samples), nil
}

// appendVarints decodes a repeated integer field that may arrive either
// unpacked (one varint v, data nil) or packed (data holds varints).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// protoFields walks one protobuf message, calling fn per field with the
// varint value (wire type 0) or the payload (wire type 2; data != nil).
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("cpuprof: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("cpuprof: bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("cpuprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpuprof: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("cpuprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpuprof: wire type %d", wt)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
