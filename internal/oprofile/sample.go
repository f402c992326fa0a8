// Package oprofile implements the baseline system-wide profiler the
// paper extends (OProfile 0.9.1, §3): a kernel driver that programs the
// hardware performance counters and services the resulting NMIs, a
// user-level daemon that drains the driver's sample buffer to sample
// files on disk, and opreport-style post-processing. Its known
// limitation — samples in dynamically generated code are logged as
// anonymous-memory black boxes — is exactly what VIProf (internal/core)
// fixes by plugging a JIT registry and epoch tags into this package's
// extension points.
package oprofile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/record"
)

// Sample is one attributed counter-overflow event, the unit the daemon
// logs: "OProfile ... identifies the corresponding binary or library
// [and] computes the offset into the corresponding object file" (§3).
type Sample struct {
	Event  hpc.Event
	PID    int
	Proc   string // process name at sampling time
	Kernel bool   // privilege mode
	PC     addr.Address

	// Image/Offset identify file-backed code. For anonymous memory,
	// Image is empty and AnonStart/AnonEnd give the region.
	Image  string
	Offset addr.Address

	AnonStart, AnonEnd addr.Address

	// JIT marks a sample inside a VM-registered JIT region; Epoch is
	// the GC execution epoch it was taken in. Only the VIProf-extended
	// pipeline sets these (plain OProfile has no JIT registry).
	JIT   bool
	Epoch int

	// CPU is the core the overflow fired on. The driver shards its ring
	// buffer by this id so the daemon can drain shards concurrently.
	CPU int
}

// Anonymous reports whether the sample fell in anonymous memory that no
// JIT registry claimed.
func (s Sample) Anonymous() bool { return s.Image == "" && !s.JIT }

// AnonName formats the anonymous-region pseudo-image name the way
// OProfile's reports show it: "anon (range:0xA-0xB),proc".
func (s Sample) AnonName() string {
	return fmt.Sprintf("anon (range:%s-%s),%s", s.AnonStart, s.AnonEnd, s.Proc)
}

// JITImageName is the pseudo-image the VIProf pipeline logs JIT samples
// under (Figure 1's "JIT.App" rows).
const JITImageName = "JIT.App"

// Key is the aggregation key the daemon accumulates sample counts
// under; one key maps to one line in a sample file.
type Key struct {
	Event hpc.Event
	Image string // image name, AnonName(), or JITImageName
	Proc  string
	JIT   bool
	Epoch int
	// CPU is the core the sample was taken on; the report path folds it
	// away for aggregate views and keeps it for per-CPU breakdowns.
	CPU int
	// Off is the image offset for file-backed samples and the absolute
	// PC for anonymous/JIT samples (JIT code maps use absolute
	// addresses).
	Off addr.Address
}

// KeyOf reduces a sample to its aggregation key.
func KeyOf(s Sample) Key {
	switch {
	case s.JIT:
		return Key{Event: s.Event, Image: JITImageName, Proc: s.Proc, JIT: true,
			Epoch: s.Epoch, CPU: s.CPU, Off: s.PC}
	case s.Image != "":
		return Key{Event: s.Event, Image: s.Image, Proc: s.Proc, CPU: s.CPU, Off: s.Offset}
	default:
		return Key{Event: s.Event, Image: s.AnonName(), Proc: s.Proc, CPU: s.CPU, Off: s.PC}
	}
}

// SampleFile is the on-disk path prefix for sample data.
const SampleFile = "var/lib/oprofile/samples.log"

// WriteCounts appends aggregated counts to buf as sample-file lines:
//
//	event<TAB>jit<TAB>epoch<TAB>offset<TAB>count<TAB>cpu<TAB>proc<TAB>image
//
// Image goes last because it may contain spaces and commas. Every
// producer frames the result (one record per flush, spill frame,
// snapshot or wire body); ReadCountsSalvage and ParseCountsText read
// it back. Each line is appended straight into buf's spare capacity,
// so a buffer already grown to fit costs no allocation.
func WriteCounts(buf *bytes.Buffer, counts map[Key]uint64, order []Key) {
	for _, k := range order {
		c := counts[k]
		if c == 0 {
			continue
		}
		jit := byte('0')
		if k.JIT {
			jit = '1'
		}
		b := buf.AvailableBuffer()
		b = strconv.AppendUint(b, uint64(k.Event), 10)
		b = append(b, '\t', jit, '\t')
		b = strconv.AppendInt(b, int64(k.Epoch), 10)
		b = append(b, '\t')
		b = strconv.AppendUint(b, uint64(k.Off), 10)
		b = append(b, '\t')
		b = strconv.AppendUint(b, c, 10)
		b = append(b, '\t')
		b = strconv.AppendInt(b, int64(k.CPU), 10)
		b = append(b, '\t')
		b = append(b, k.Proc...)
		b = append(b, '\t')
		b = append(b, k.Image...)
		b = append(b, '\n')
		buf.Write(b)
	}
}

// ReadCounts parses a framed sample file, summing duplicate keys (the
// daemon appends deltas across flushes). Any damage is a hard error
// here — use ReadCountsSalvage to recover the intact records with loss
// accounting.
func ReadCounts(r io.Reader) (map[Key]uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	counts, sal, err := ReadCountsSalvage(data)
	if err != nil {
		return nil, err
	}
	if sal.Lossy() {
		return nil, fmt.Errorf("oprofile: sample file corrupt: %d records dropped (%d bytes)",
			sal.DroppedRecords, sal.DroppedBytes)
	}
	return counts, nil
}

// ReadCountsSalvage parses a framed sample file, recovering every
// intact record and accounting for damage instead of failing.
func ReadCountsSalvage(data []byte) (map[Key]uint64, record.Salvage, error) {
	counts := make(map[Key]uint64)
	recs, sal := record.Scan(data)
	for _, payload := range recs {
		// A checksum-valid record that fails to parse is a writer bug,
		// not disk damage: fail hard rather than salvage it away.
		if err := ParseCountsText(payload, counts); err != nil {
			return nil, sal, err
		}
	}
	return counts, sal, nil
}

// ParseCountsText parses the sample lines of one record payload (the
// WriteCounts format) into counts, summing duplicate keys. Callers
// handle the framing: the sample-file readers, spill frames, and the
// fleet wire protocol, which ships one WriteCounts body per framed
// delta record.
//
// The payload becomes one string per call and every field is a
// substring of it; Image and Proc are interned through a per-call
// table of copies, so a decoded Key never pins the payload and a
// payload costs O(its size) in allocation, whatever its line count.
// Lines split as bufio.ScanLines splits them (one trailing '\r' is
// dropped; empty lines are skipped but numbered), and a line of
// maxSampleLine bytes or more fails with bufio.ErrTooLong.
func ParseCountsText(data []byte, counts map[Key]uint64) error {
	names := make(map[string]string)
	intern := func(s string) string {
		if c, ok := names[s]; ok {
			return c
		}
		c := strings.Clone(s)
		names[c] = c
		return c
	}
	rest := string(data)
	for line := 1; rest != ""; line++ {
		var text string
		text, rest, _ = strings.Cut(rest, "\n")
		if len(text) >= maxSampleLine {
			return bufio.ErrTooLong
		}
		text = strings.TrimSuffix(text, "\r")
		if text == "" {
			continue
		}
		// The image goes last and keeps any further tabs.
		var f [8]string
		for i := 0; i < len(f)-1; i++ {
			field, after, ok := strings.Cut(text, "\t")
			if !ok {
				return fmt.Errorf("oprofile: sample line %d: %d fields", line, i+1)
			}
			f[i], text = field, after
		}
		f[len(f)-1] = text
		ev, err1 := strconv.Atoi(f[0])
		jit, err2 := strconv.Atoi(f[1])
		epoch, err3 := strconv.Atoi(f[2])
		off, err4 := strconv.ParseUint(f[3], 10, 64)
		cnt, err5 := strconv.ParseUint(f[4], 10, 64)
		cpu, err6 := strconv.Atoi(f[5])
		for _, err := range []error{err1, err2, err3, err4, err5, err6} {
			if err != nil {
				return fmt.Errorf("oprofile: sample line %d: %v", line, err)
			}
		}
		k := Key{
			Event: hpc.Event(ev),
			Image: intern(f[7]),
			Proc:  intern(f[6]),
			JIT:   jit != 0,
			Epoch: epoch,
			CPU:   cpu,
			Off:   addr.Address(off),
		}
		counts[k] += cnt
	}
	return nil
}

// maxSampleLine bounds one sample line, '\r' included.
const maxSampleLine = 1 << 20
