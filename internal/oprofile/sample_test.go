package oprofile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/record"
)

// parseCountsTextScanner is the Scanner-based sample-line parser
// ParseCountsText replaced, kept verbatim as the differential oracle.
func parseCountsTextScanner(data []byte, counts map[Key]uint64) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		parts := strings.SplitN(text, "\t", 8)
		if len(parts) != 8 {
			return fmt.Errorf("oprofile: sample line %d: %d fields", line, len(parts))
		}
		ev, err1 := strconv.Atoi(parts[0])
		jit, err2 := strconv.Atoi(parts[1])
		epoch, err3 := strconv.Atoi(parts[2])
		off, err4 := strconv.ParseUint(parts[3], 10, 64)
		cnt, err5 := strconv.ParseUint(parts[4], 10, 64)
		cpu, err6 := strconv.Atoi(parts[5])
		for _, err := range []error{err1, err2, err3, err4, err5, err6} {
			if err != nil {
				return fmt.Errorf("oprofile: sample line %d: %v", line, err)
			}
		}
		k := Key{
			Event: hpc.Event(ev),
			Image: parts[7],
			Proc:  parts[6],
			JIT:   jit != 0,
			Epoch: epoch,
			CPU:   cpu,
			Off:   addr.Address(off),
		}
		counts[k] += cnt
	}
	return sc.Err()
}

// sampleCounts is a realistic flush: a few images and processes shared
// by many keys, across two CPUs, with anonymous and JIT lines.
func sampleCounts() (map[Key]uint64, []Key) {
	counts := make(map[Key]uint64)
	var order []Key
	images := []string{"vmlinux", "libc.so.6", "RVM.code.image", "anon (range:0x60000000-0x68000000),jikesrvm", JITImageName}
	procs := []string{"jikesrvm", "ps", "noise"}
	for i := 0; i < 60; i++ {
		k := Key{
			Event: hpc.Event(i % 2),
			Image: images[i%len(images)],
			Proc:  procs[i%len(procs)],
			CPU:   i % 2,
			Off:   addr.Address(0x1000 + 0x40*i),
		}
		if k.Image == JITImageName {
			k.JIT, k.Epoch, k.Off = true, i%7, addr.Address(0x6100_0000+0x40*i)
		}
		counts[k] = uint64(1 + i*37%500)
		order = append(order, k)
	}
	return counts, order
}

func writeCountsText(t testing.TB, counts map[Key]uint64, order []Key) []byte {
	t.Helper()
	var buf bytes.Buffer
	WriteCounts(&buf, counts, order)
	return buf.Bytes()
}

// FuzzParseCountsText checks ParseCountsText against the Scanner-based
// oracle: the same error text, or the same counts. On an error both
// must also have folded the same lines before it.
func FuzzParseCountsText(f *testing.F) {
	counts, order := sampleCounts()
	f.Add(writeCountsText(f, counts, order))
	f.Add(writeCountsText(f, counts, order[:3]))
	f.Add([]byte("0\t0\t0\t64\t5\t1\tapp\tlibc.so\r\n1\t1\t3\t9\t2\t0\tjvm\tJIT.App\r\n"))
	f.Add([]byte("\n\n0\t0\t0\t64\t5\t1\tapp\tlibc.so\n\n\r\n"))
	f.Add([]byte("0\t0\t0\t64\t5\t1\tapp\tlibc.so\n0\t0\t0\t64\t5\t1\tapp\tlibc.so"))
	f.Add([]byte("0\t0\t0\t64\t5\t1\tapp\tanon (range:0x1-0x2),a\tb\t\tc\n"))
	f.Add([]byte("+0\t-1\t-3\t64\t5\t+1\tapp\tlibc.so\n"))
	f.Add([]byte("0\t0\t0\t+64\t5\t1\tapp\tlibc.so\n"))
	f.Add([]byte("0\t0\t0\t64\t5\t1\tapp\n"))
	f.Add([]byte("0\t0\t0\t64\t5\t1\tapp\tlibc.so\r\r\n\r"))
	long := "0\t0\t0\t64\t5\t1\tapp\t"
	under := []byte(long + strings.Repeat("x", 1<<20-1-len(long)) + "\n")
	at := []byte(long + strings.Repeat("x", 1<<20-len(long)) + "\n")
	f.Add(under)
	f.Add(at)
	f.Add(at[:len(at)-1])
	f.Add(append([]byte("0\t0\t0\t64\t5\t1\tapp\tlibc.so\n"), under[:len(under)-1]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := make(map[Key]uint64)
		wantErr := parseCountsTextScanner(data, want)
		got := make(map[Key]uint64)
		gotErr := ParseCountsText(data, got)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, oracle %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("counts differ from oracle (error %v): %d keys, oracle %d", gotErr, len(got), len(want))
		}
	})
}

// allocPerCall reports the mean heap bytes one call of fn allocates.
func allocPerCall(n int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// Decoding allocates O(input): no buffer per call and no string per
// line. With every key already in the map, one payload costs at most
// two bytes per input byte (one copy of the payload plus interned
// names) and a small constant.
func TestParseCountsTextAllocBudget(t *testing.T) {
	counts, order := sampleCounts()
	payload := writeCountsText(t, counts, order)
	into := make(map[Key]uint64)
	if err := ParseCountsText(payload, into); err != nil {
		t.Fatal(err)
	}
	got := allocPerCall(200, func() {
		if err := ParseCountsText(payload, into); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(2*len(payload) + 1024); got > budget {
		t.Errorf("ParseCountsText allocates %d B per %d-byte payload, budget %d", got, len(payload), budget)
	}
	t.Logf("ParseCountsText: %d B per %d-byte payload", got, len(payload))
}

// A sample file of several flushes stays within 16 bytes per input
// byte plus 8 KiB per record, the counts map included.
func TestReadCountsSalvageAllocBudget(t *testing.T) {
	counts, order := sampleCounts()
	var file []byte
	const records = 4
	for i := 0; i < records; i++ {
		file = append(file, record.Frame(writeCountsText(t, counts, order[i*len(order)/records:(i+1)*len(order)/records]))...)
	}
	got := allocPerCall(100, func() {
		if _, _, err := ReadCountsSalvage(file); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(16*len(file) + records*8<<10); got > budget {
		t.Errorf("ReadCountsSalvage allocates %d B per %d-byte file of %d records, budget %d",
			got, len(file), records, budget)
	}
	t.Logf("ReadCountsSalvage: %d B per %d-byte file of %d records", got, len(file), records)
}

// writeCountsFmt is the bufio/Fprintf writer WriteCounts replaced, kept
// as the byte-identity oracle.
func writeCountsFmt(w io.Writer, counts map[Key]uint64, order []Key) error {
	bw := bufio.NewWriter(w)
	for _, k := range order {
		c := counts[k]
		if c == 0 {
			continue
		}
		jit := 0
		if k.JIT {
			jit = 1
		}
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			k.Event, jit, k.Epoch, uint64(k.Off), c, k.CPU, k.Proc, k.Image); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Property: WriteCounts emits exactly the oracle's bytes for any keys,
// zero counts, negative epochs and extreme offsets included.
func TestWriteCountsMatchesFmtOracle(t *testing.T) {
	check := func(counts map[Key]uint64, order []Key) bool {
		var got, want bytes.Buffer
		got.WriteString("#prefix\n")
		want.WriteString("#prefix\n")
		WriteCounts(&got, counts, order)
		if err := writeCountsFmt(&want, counts, order); err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(got.Bytes(), want.Bytes())
	}
	counts, order := sampleCounts()
	if !check(counts, order) {
		t.Fatal("sampleCounts: output differs from the fmt oracle")
	}
	f := func(ev uint8, jit bool, epoch int, off uint64, cnt uint64, cpu int, proc, image string) bool {
		k := Key{Event: hpc.Event(ev), JIT: jit, Epoch: epoch, Off: addr.Address(off),
			CPU: cpu, Proc: proc, Image: image}
		zero := Key{Image: "zero"}
		return check(map[Key]uint64{k: cnt, zero: 0}, []Key{zero, k, k})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Writing into a buffer already grown to fit allocates at most 256
// bytes beyond the output itself: no bufio buffer, no per-line
// formatting garbage.
func TestWriteCountsAllocBudget(t *testing.T) {
	counts, order := sampleCounts()
	var buf bytes.Buffer
	WriteCounts(&buf, counts, order)
	n := buf.Len()
	got := allocPerCall(200, func() {
		buf.Reset()
		WriteCounts(&buf, counts, order)
	})
	if budget := uint64(n + 256); got > budget {
		t.Errorf("WriteCounts allocates %d B per %d-byte output, budget %d", got, n, budget)
	}
	t.Logf("WriteCounts: %d B per %d-byte output", got, n)
}
