package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// The CPU profile of the traced run is read with a small decoder of the
// pprof protobuf format (profile.proto), so attribution needs nothing
// beyond the standard library.

// profStack is one sample: its count and its frames' function names,
// innermost first (inlined frames expanded).
type profStack struct {
	count int64
	funcs []string
}

type pbField struct {
	num  int
	wire int
	v    uint64 // varint and fixed values
	b    []byte // length-delimited values
}

func pbFields(b []byte, f func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad key")
		}
		b = b[n:]
		fl := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch fl.wire {
		case 0:
			fl.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			fl.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			fl.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			fl.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", fl.wire)
		}
		if err := f(fl); err != nil {
			return err
		}
	}
	return nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(fl pbField, dst []uint64) []uint64 {
	if fl.wire == 0 {
		return append(dst, fl.v)
	}
	for b := fl.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// parseProfile decodes a gzip-compressed CPU profile into its stacks.
func parseProfile(r io.Reader) ([]profStack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
	)
	err = pbFields(raw, func(fl pbField) error {
		switch fl.num {
		case 2:
			var s sample
			err := pbFields(fl.b, func(f pbField) error {
				switch f.num {
				case 1:
					s.locs = pbUints(f, s.locs)
				case 2:
					s.values = pbUints(f, s.values)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(fl.b, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 4:
					return pbFields(f.b, func(l pbField) error {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(fl.b, func(f pbField) error {
				switch f.num {
				case 1:
					id = f.v
				case 2:
					name = f.v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(fl.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := profStack{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const internalPrefix = "melissa/internal/"

// gcFuncs are the runtime's garbage-collector entry points; a sample with
// any of them on its stack is collector work, wherever it was triggered.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
}

// chargeBucket names the layer a stack is charged to:
//   - "runtime_gc" for collector work, wherever it was triggered;
//   - else the innermost melissa/internal/<pkg> frame, so the math called
//     from a package counts as that package;
//   - "sim" for the benchmark's synthetic solver and "bench" for the rest of
//     the harness, its profiler included;
//   - "runtime_sched" for the remaining runtime stacks: the scheduler,
//     timers and the network poller, which the program drives through its
//     goroutine hand-offs and tickers;
//   - "other" for anything else.
func chargeBucket(funcs []string) string {
	for _, fn := range funcs {
		if slices.Contains(gcFuncs, fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range funcs {
		if pkg, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i > 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.(*solver).") || fn == "main.response" {
			return "sim"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "runtime/pprof.") {
			return "bench"
		}
	}
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "runtime.") {
			return "runtime_sched"
		}
	}
	return "other"
}

// cpuShares charges every sample to its bucket and returns each bucket's
// share of all samples.
func cpuShares(stacks []profStack) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[chargeBucket(s.funcs)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(counts))
	for k, c := range counts {
		if total > 0 {
			shares[k] = float64(c) / float64(total)
		}
	}
	return shares
}
