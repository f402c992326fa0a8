package core

import (
	"bytes"
	"strings"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/jvm/jit"
	"viprof/internal/oprofile"
)

func TestPhaseBreakdown(t *testing.T) {
	// Synthetic counts: epoch 0 dominated by A, epoch 2 by B, epoch 1
	// silent.
	chain := NewMapChain([][]MapEntry{
		{{Start: 100, Size: 50, Sig: "A", Level: "base"}},
		nil,
		{{Start: 200, Size: 50, Sig: "B", Level: "opt"}},
	})
	res := &Resolver{
		ELF:       &oprofile.ELFResolver{},
		BootMaps:  map[string]BootMap{},
		Chains:    map[int]*MapChain{3: chain},
		PIDByProc: map[string]int{"jikesrvm": 3},
	}
	counts := map[oprofile.Key]uint64{
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "jikesrvm", Epoch: 0, Off: 110}: 9,
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "jikesrvm", Epoch: 0, Off: 120}: 4,
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "jikesrvm", Epoch: 2, Off: 210}: 7,
		// Another process's samples must not leak in.
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "other", Epoch: 0, Off: 110}: 99,
		// Non-JIT samples are out of scope for the phase view.
		{Event: hpc.GlobalPowerEvents, Image: "vmlinux", Off: 5}: 50,
	}
	rows := PhaseBreakdown(counts, res, "jikesrvm", hpc.GlobalPowerEvents)
	if len(rows) != 3 {
		t.Fatalf("%d phase rows, want 3", len(rows))
	}
	if rows[0].Counts[hpc.GlobalPowerEvents] != 13 || rows[0].TopSig != "A" {
		t.Errorf("epoch 0 = %+v", rows[0])
	}
	if rows[1].Counts[hpc.GlobalPowerEvents] != 0 {
		t.Errorf("silent epoch 1 = %+v", rows[1])
	}
	if rows[2].TopSig != "B" || rows[2].Counts[hpc.GlobalPowerEvents] != 7 {
		t.Errorf("epoch 2 = %+v", rows[2])
	}
	var buf bytes.Buffer
	if err := FormatPhases(&buf, rows, hpc.GlobalPowerEvents); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hottest method") {
		t.Errorf("format:\n%s", buf.String())
	}
}

func TestPhaseBreakdownEndToEnd(t *testing.T) {
	s, vm, proc, m := runSession(t, stdConfig(), 128<<10)
	counts, sf, err := oprofile.ReadSampleFile(m.Kern.Disk(), oprofile.SampleFile)
	if err != nil || sf.Missing || sf.Unreadable || sf.Salvage.Lossy() {
		t.Fatalf("sample file: err %v, missing %v, unreadable %v, %+v", err, sf.Missing, sf.Unreadable, sf.Salvage)
	}
	res, err := NewResolver(m.Kern.Disk(), s.Images(vm), map[string]int{proc.Name: proc.PID})
	if err != nil {
		t.Fatal(err)
	}
	rows := PhaseBreakdown(counts, res, proc.Name, hpc.GlobalPowerEvents)
	if len(rows) == 0 {
		t.Fatal("no phases")
	}
	var total uint64
	resolvedTops := 0
	for _, r := range rows {
		total += r.Counts[hpc.GlobalPowerEvents]
		if r.TopSig != "" && r.TopSig != oprofile.NoSymbols {
			resolvedTops++
		}
	}
	if total == 0 {
		t.Fatal("phase rows empty")
	}
	if resolvedTops == 0 {
		t.Error("no epoch has a resolved hottest method")
	}
}

func TestDiffReports(t *testing.T) {
	mk := func(aCount, bCount uint64) *oprofile.Report {
		counts := map[oprofile.Key]uint64{
			{Event: hpc.GlobalPowerEvents, Image: "x", Off: 1}: aCount,
			{Event: hpc.GlobalPowerEvents, Image: "y", Off: 2}: bCount,
		}
		return oprofile.BuildReport(counts, &oprofile.ELFResolver{}, []hpc.Event{hpc.GlobalPowerEvents})
	}
	before := mk(90, 10) // x: 90%, y: 10%
	after := mk(50, 50)  // x: 50%, y: 50%
	rows := DiffReports(before, after, hpc.GlobalPowerEvents)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Both moved by 40 points, opposite signs.
	for _, r := range rows {
		switch r.Image {
		case "x":
			if r.Delta > -39 || r.Before < 89 {
				t.Errorf("x row = %+v", r)
			}
		case "y":
			if r.Delta < 39 {
				t.Errorf("y row = %+v", r)
			}
		}
	}
	var buf bytes.Buffer
	if err := FormatDiff(&buf, rows, 1); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("maxRows not applied:\n%s", buf.String())
	}
}

func TestDiffHandlesDisjointSymbols(t *testing.T) {
	before := oprofile.BuildReport(map[oprofile.Key]uint64{
		{Event: hpc.GlobalPowerEvents, Image: "only-before", Off: 1}: 5,
	}, &oprofile.ELFResolver{}, []hpc.Event{hpc.GlobalPowerEvents})
	after := oprofile.BuildReport(map[oprofile.Key]uint64{
		{Event: hpc.GlobalPowerEvents, Image: "only-after", Off: 1}: 5,
	}, &oprofile.ELFResolver{}, []hpc.Event{hpc.GlobalPowerEvents})
	rows := DiffReports(before, after, hpc.GlobalPowerEvents)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Image == "only-before" && (r.After != 0 || r.Delta != -100) {
			t.Errorf("vanished symbol: %+v", r)
		}
		if r.Image == "only-after" && (r.Before != 0 || r.Delta != 100) {
			t.Errorf("appeared symbol: %+v", r)
		}
	}
}

func TestAnnotateBody(t *testing.T) {
	h := newProtoHarness(t)
	body := h.compile(0, 20, jit.Baseline)
	h.heap.Collect() // move it once so the chain records two placements
	h.agent.OnExit(h.heap.Epoch())
	chain, err := ReadMapChain(h.m.Kern.Disk(), h.proc.PID)
	if err != nil {
		t.Fatal(err)
	}
	// Samples: one in epoch 0 (old address), one at the current address,
	// both inside bytecode 3's machine-code range.
	oldStart := chain.Entries(0)[0].Start
	off3 := addr.Address(body.BCOff[3])
	counts := map[oprofile.Key]uint64{
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "jikesrvm", Epoch: 0, Off: oldStart + off3}:     2,
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "jikesrvm", Epoch: 1, Off: body.Start() + off3}: 3,
		// A sample in another process must be ignored.
		{Event: hpc.GlobalPowerEvents, JIT: true, Proc: "other", Epoch: 1, Off: body.Start() + off3}: 9,
	}
	rows := AnnotateBody(counts, chain, body, "jikesrvm")
	if len(rows) != 20 {
		t.Fatalf("%d rows for a 20-bytecode method", len(rows))
	}
	if rows[3].Counts[hpc.GlobalPowerEvents] != 5 {
		for _, r := range rows {
			if r.Counts[hpc.GlobalPowerEvents] > 0 {
				t.Logf("bci %d: %d", r.BCI, r.Counts[hpc.GlobalPowerEvents])
			}
		}
		t.Errorf("bytecode 3 got %d samples, want 5 (old+new placements)",
			rows[3].Counts[hpc.GlobalPowerEvents])
	}
	var total uint64
	for _, r := range rows {
		total += r.Counts[hpc.GlobalPowerEvents]
	}
	if total != 5 {
		t.Errorf("total annotated %d, want 5", total)
	}
	var buf bytes.Buffer
	if err := FormatAnnotation(&buf, body.Method.Signature(), rows, []hpc.Event{hpc.GlobalPowerEvents}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "annotated") {
		t.Error("format output wrong")
	}
}
