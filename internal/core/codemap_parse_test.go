package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/kernel"
	"viprof/internal/record"
)

// salvageBytes reads data as a map file on a fresh disk through
// readMapFile, the salvaging reader every disk path uses.
func salvageBytes(data []byte) ([]MapEntry, record.Salvage, bool, error) {
	disk := kernel.NewDisk()
	disk.Append("map.0", data)
	mf, err := readMapFile(disk, "map.0")
	return mf.Entries, mf.Salvage, mf.TrailerOK, err
}

// salvageMapDataSscanf is the Sscanf-based map-entry reader
// salvageMapData replaced, kept verbatim as the differential oracle.
func salvageMapDataSscanf(data []byte) (entries []MapEntry, sal record.Salvage, trailerOK bool, err error) {
	recs, sal := record.Scan(data)
	trailer := -1
	for _, payload := range recs {
		text := strings.TrimSpace(string(payload))
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#end ") {
			var n int
			if c, serr := fmt.Sscanf(text, "#end %d", &n); c != 1 || serr != nil {
				return nil, sal, false, fmt.Errorf("code map: bad trailer %q", text)
			}
			trailer = n
			continue
		}
		var start uint64
		var size uint32
		var epoch int
		var level, sig string
		if _, serr := fmt.Sscanf(text, "%x %d %d %s %s", &start, &size, &epoch, &level, &sig); serr != nil {
			return nil, sal, false, fmt.Errorf("code map entry %q: %v", text, serr)
		}
		entries = append(entries, MapEntry{
			Start: addr.Address(start), Size: size, Epoch: epoch, Level: level, Sig: sig,
		})
	}
	trailerOK = trailer == len(entries)
	return entries, sal, trailerOK, nil
}

func mapFileBytes(t testing.TB, entries []MapEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMapFile(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mapSample is an epoch map as the agent writes one: both tiers,
// several epochs, signatures with the JVM's punctuation.
func mapSample(n int) []MapEntry {
	entries := make([]MapEntry, n)
	for i := range entries {
		level := "base"
		if i%3 == 0 {
			level = "opt"
		}
		entries[i] = MapEntry{
			Start: addr.Address(0x6000_0000 + 0x140*i), Size: uint32(64 + 8*i),
			Epoch: i / 8, Level: level, Sig: fmt.Sprintf("Lspec/benchmarks/C%d;m%d(I[J)Ljava/lang/String;", i%5, i),
		}
	}
	return entries
}

// reframeLines frames every line of data as its own record, so fuzzed
// text reaches the entry parser instead of failing its checksum.
func reframeLines(data []byte) []byte {
	var out []byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n') + 1
		if i == 0 {
			i = len(data)
		}
		out = append(out, record.Frame(data[:i])...)
		data = data[i:]
	}
	return out
}

// writerEmittable reports whether every intact record of data is one
// WriteMapFile could have written: a trailer or an entry the oracle
// reads and that re-encodes to the same bytes.
func writerEmittable(data []byte) bool {
	recs, _ := record.Scan(data)
	for _, rec := range recs {
		text := string(rec)
		if strings.HasPrefix(text, "#end ") {
			var n int
			if c, err := fmt.Sscanf(text, "#end %d", &n); c != 1 || err != nil || text != fmt.Sprintf("#end %d\n", n) {
				return false
			}
			continue
		}
		entries, _, _, err := salvageMapDataSscanf(record.Frame(rec))
		if err != nil || len(entries) != 1 {
			return false
		}
		line := fmt.Sprintf("%08x %d %d %s %s\n", uint64(entries[0].Start), entries[0].Size,
			entries[0].Epoch, entries[0].Level, entries[0].Sig)
		if line != text {
			return false
		}
	}
	return true
}

// FuzzMapEntries checks the map-file reader against the Sscanf oracle, on
// the input as framed bytes and with each of its lines framed as a
// record. Whatever the new parser accepts, the oracle reads to the same
// entries, salvage and trailer verdict; whatever a writer could have
// emitted and the oracle reads, the new parser accepts.
func FuzzMapEntries(f *testing.F) {
	full := mapFileBytes(f, mapSample(6))
	f.Add(full)
	for _, cut := range []int{1, len(full) / 3, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	for _, pos := range []int{2, record.HeaderSize + 3, len(full) / 2, len(full) - 4} {
		flipped := append([]byte(nil), full...)
		flipped[pos] ^= 0x41
		f.Add(flipped)
	}
	f.Add(mapFileBytes(f, nil))
	for _, text := range []string{
		"60000000 64 0 base LA;m0()V\n#end 1\n",
		"0x60000000 64 0 base LA;m0()V\n",
		"60000000  64\t0 base LA;m0()V\n",
		"60000000 64 0 base LA;m0()V trailing\n#end 1 trailing\n",
		"60000000 +64 -0 base LA;m0()V\n#end +1\n",
		"60000000 64 0 base LA;\xffm0()V\n",
		"60000000 64 0 base\u00a0LA;m0()V x\n",
		"6000000G 4294967296 0 base LA;m0()V\n#end 5x\n",
		"60000000 64 0  LA;m0()V\n\r\n#end\n",
	} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reframeLines(data)} {
			got, gotSal, gotOK, err := salvageBytes(in)
			want, wantSal, wantOK, werr := salvageMapDataSscanf(in)
			if err == nil {
				if werr != nil {
					t.Fatalf("%q: accepted, oracle rejects: %v", in, werr)
				}
				if !reflect.DeepEqual(got, want) || gotSal != wantSal || gotOK != wantOK {
					t.Fatalf("%q: %+v %+v %v, oracle %+v %+v %v", in, got, gotSal, gotOK, want, wantSal, wantOK)
				}
			} else if werr == nil && writerEmittable(in) {
				t.Fatalf("%q: writer's map rejected (%v), oracle reads it", in, err)
			}
		}
	})
}

// The forms Sscanf read but no writer produces are rejected, never read
// to different values.
func TestMapEntryRejectsNonWriterForms(t *testing.T) {
	for _, text := range []string{
		"60000000  64 0 base LA;m0()V",       // run of spaces
		"60000000\t64 0 base LA;m0()V",       // tab separator
		"60000000 64 0 base LA;m0()V extra",  // trailing text
		"60000000 64 0 base\u00a0LA;m0()V x", // Unicode space inside a name
		"60000000 64 0 base LA;\xffm0()V",    // invalid UTF-8 in a name
		"#end  2",                            // trailer: run of spaces
		"#end 2x",                            // trailer: trailing text
		"#end 0x2",                           // trailer: hex prefix
	} {
		if _, _, _, err := salvageBytes(record.Frame([]byte(text + "\n"))); err == nil {
			t.Errorf("%q accepted", text)
		}
	}
}

// Decoding a map file allocates O(input): within 16 bytes per input
// byte plus 8 KiB.
func TestReadMapFileAllocBudget(t *testing.T) {
	data := mapFileBytes(t, mapSample(40))
	read := func() {
		if _, err := ReadMapFile(data); err != nil {
			t.Fatal(err)
		}
	}
	read()
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	if budget := uint64(16*len(data) + 8<<10); got > budget {
		t.Errorf("ReadMapFile allocates %d B per %d-byte map, budget %d", got, len(data), budget)
	}
	t.Logf("ReadMapFile: %d B per %d-byte map", got, len(data))
}
