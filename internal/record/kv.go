package record

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Stats records. Every self-accounting record the pipeline persists
// (daemon, agent, recovery, retention, fleet collector and sender) is
// one framed payload of "key=n" lines. A record type declares its
// fields once, as an ordered []Field of key and pointer; EncodeKV and
// DecodeKV both walk that one table, so the writer and the reader
// cannot drift apart. Which framed record to decode (the only one, or
// the last intact one) is the caller's rule, not the codec's.

// Field binds one key of a stats record, or one family of keys for
// the map and per-CPU kinds, to the variable that holds its value.
type Field struct {
	key      string
	p        any // *uint64, *int, *bool, *map[string]uint64 or *map[string]map[int]uint64
	omitZero bool
	bases    []string
}

// Uint binds key to *p.
func Uint(key string, p *uint64) Field { return Field{key: key, p: p} }

// Int binds key to *p; values that do not fit an int are rejected on
// decode.
func Int(key string, p *int) Field { return Field{key: key, p: p} }

// Bool binds key to *p, written as 0 or 1; any non-zero value decodes
// as true.
func Bool(key string, p *bool) Field { return Field{key: key, p: p} }

// Map binds every "<prefix><name>" key to (*p)[name]. Entries are
// written in name order, zero entries included. Decoding always leaves
// *p a non-nil map.
func Map(prefix string, p *map[string]uint64) Field { return Field{key: prefix, p: p} }

// MapNonZero is Map for maps where a zero entry means the same as no
// entry: zero entries are neither written nor decoded.
func MapNonZero(prefix string, p *map[string]uint64) Field {
	return Field{key: prefix, p: p, omitZero: true}
}

// PerCPU binds every "<base>.cpu<N>" key, base one of bases, to
// (*p)[base][N]. The block is written CPU by CPU in ascending order,
// the bases in the given order within each CPU, and only the entries
// present in *p; a nil *p writes nothing and decodes from no lines.
// On decode a per-CPU key is matched before any Map prefix, so
// "spilled_lost.cpu0" is never read as a map entry named "cpu0".
func PerCPU(bases []string, p *map[string]map[int]uint64) Field {
	return Field{p: p, bases: bases}
}

// EncodeKV renders fields as a stats payload, in table order.
func EncodeKV(fields []Field) []byte {
	var b []byte
	line := func(key, num string) {
		b = append(append(append(append(b, key...), '='), num...), '\n')
	}
	for _, f := range fields {
		switch p := f.p.(type) {
		case *uint64:
			line(f.key, strconv.FormatUint(*p, 10))
		case *int:
			line(f.key, strconv.Itoa(*p))
		case *bool:
			num := "0"
			if *p {
				num = "1"
			}
			line(f.key, num)
		case *map[string]uint64:
			names := make([]string, 0, len(*p))
			for name := range *p {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if n := (*p)[name]; n != 0 || !f.omitZero {
					line(f.key+name, strconv.FormatUint(n, 10))
				}
			}
		case *map[string]map[int]uint64:
			var cpus []int
			for _, base := range f.bases {
				for ci := range (*p)[base] {
					if !slices.Contains(cpus, ci) {
						cpus = append(cpus, ci)
					}
				}
			}
			sort.Ints(cpus)
			for _, ci := range cpus {
				for _, base := range f.bases {
					if n, ok := (*p)[base][ci]; ok {
						line(base+".cpu"+strconv.Itoa(ci), strconv.FormatUint(n, 10))
					}
				}
			}
		}
	}
	return b
}

// DecodeKV parses a stats payload into fields. Every line must be
// "key=n" with n a decimal uint64; the first line that is not fails
// the whole payload. Keys no field claims are ignored. Map fields are
// reset to empty maps first; other fields keep their value unless a
// line sets them, so callers decode into a zero record.
func DecodeKV(payload []byte, fields []Field) error {
	for _, f := range fields {
		if p, ok := f.p.(*map[string]uint64); ok {
			*p = make(map[string]uint64)
		}
	}
	for i, text := range strings.Split(string(payload), "\n") {
		if text == "" {
			continue
		}
		k, v, ok := strings.Cut(text, "=")
		n, err := strconv.ParseUint(v, 10, 64)
		if !ok || err != nil {
			return fmt.Errorf("record: stats line %d: %q is not key=n", i+1, text)
		}
		if err := decodeLine(fields, k, n); err != nil {
			return fmt.Errorf("record: stats line %d: %v", i+1, err)
		}
	}
	return nil
}

// decodeLine stores one parsed line: exact keys first, then per-CPU
// keys, then map prefixes.
func decodeLine(fields []Field, k string, n uint64) error {
	for _, f := range fields {
		if f.key != k {
			continue
		}
		switch p := f.p.(type) {
		case *uint64:
			*p = n
			return nil
		case *int:
			if n > math.MaxInt {
				return fmt.Errorf("%s=%d overflows int", k, n)
			}
			*p = int(n)
			return nil
		case *bool:
			*p = n != 0
			return nil
		}
	}
	if dot := strings.LastIndex(k, ".cpu"); dot > 0 {
		base := k[:dot]
		if ci, err := strconv.ParseUint(k[dot+len(".cpu"):], 10, strconv.IntSize-1); err == nil {
			for _, f := range fields {
				if p, ok := f.p.(*map[string]map[int]uint64); ok && slices.Contains(f.bases, base) {
					if *p == nil {
						*p = make(map[string]map[int]uint64)
					}
					if (*p)[base] == nil {
						(*p)[base] = make(map[int]uint64)
					}
					(*p)[base][int(ci)] = n
					return nil
				}
			}
		}
	}
	for _, f := range fields {
		if p, ok := f.p.(*map[string]uint64); ok && strings.HasPrefix(k, f.key) {
			if name := k[len(f.key):]; n == 0 && f.omitZero {
				delete(*p, name)
			} else {
				(*p)[name] = n
			}
			return nil
		}
	}
	return nil
}
