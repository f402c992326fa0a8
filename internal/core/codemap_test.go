package core

import (
	"bytes"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/record"
)

func TestMapFileRoundTrip(t *testing.T) {
	entries := []MapEntry{
		{Start: 0x6000_0040, Size: 512, Level: "base", Sig: "app.Main.main"},
		{Start: 0x6000_0400, Size: 128, Level: "opt", Sig: "app.Worker.run"},
	}
	var buf bytes.Buffer
	if err := WriteMapFile(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMapFile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d entries", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestReadMapFileErrors(t *testing.T) {
	// Unframed garbage: nothing salvages, no trailer — rejected.
	if _, err := ReadMapFile([]byte("not a map\n")); err == nil {
		t.Error("garbage accepted")
	}
	// An empty entry set with a valid trailer is a legitimate empty map.
	var empty bytes.Buffer
	if err := WriteMapFile(&empty, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMapFile(empty.Bytes())
	if err != nil || len(got) != 0 {
		t.Errorf("empty map: %v, %d entries", err, len(got))
	}
	// A map missing its trailer record reads as torn.
	var noTrailer bytes.Buffer
	noTrailer.Write(record.Frame([]byte("00000010 5 0 base a.b\n")))
	if _, err := ReadMapFile(noTrailer.Bytes()); err == nil {
		t.Error("map without trailer accepted (torn writes undetectable)")
	}
	// A trailer whose count disagrees with the entries reads as torn.
	var mismatch bytes.Buffer
	mismatch.Write(record.Frame([]byte("00000010 5 0 base a.b\n")))
	mismatch.Write(record.Frame([]byte("#end 2\n")))
	if _, err := ReadMapFile(mismatch.Bytes()); err == nil {
		t.Error("trailer count mismatch accepted")
	}
	// A checksum-valid record with an unparseable payload is a writer
	// bug and errors hard even through the salvage path.
	var badPayload bytes.Buffer
	badPayload.Write(record.Frame([]byte("zz not numbers\n")))
	if _, _, _, err := salvageBytes(badPayload.Bytes()); err == nil {
		t.Error("unparseable checksum-valid record accepted")
	}
}

func TestMapChainBackwardSearch(t *testing.T) {
	// Epoch 0: method A at [100,200). Epoch 1: method B compiled at
	// [300,400); A unmoved (not rewritten). Epoch 2: GC moved A to
	// [500,600) and B to [100,200) — B now occupies A's old range.
	chain := NewMapChain([][]MapEntry{
		{{Start: 100, Size: 100, Sig: "A", Level: "base"}},
		{{Start: 300, Size: 100, Sig: "B", Level: "base"}},
		{
			{Start: 500, Size: 100, Sig: "A", Level: "base"},
			{Start: 100, Size: 100, Sig: "B", Level: "base"},
		},
	})
	tests := []struct {
		epoch int
		pc    addr.Address
		want  string
		found bool
	}{
		{0, 150, "A", true}, // same epoch
		{1, 150, "A", true}, // falls back to epoch 0's map
		{1, 350, "B", true}, // epoch 1's own map
		{2, 150, "B", true}, // B moved onto A's old range: epoch 2 wins
		{2, 550, "A", true}, // A's new home
		{2, 999, "", false}, // nowhere
		{0, 350, "", false}, // B doesn't exist yet in epoch 0's view
		{9, 550, "A", true}, // epoch beyond chain clamps to last map
	}
	for _, tt := range tests {
		e, _, ok := chain.Resolve(tt.epoch, tt.pc)
		if ok != tt.found || (ok && e.Sig != tt.want) {
			t.Errorf("Resolve(%d, %d) = %q,%v; want %q,%v", tt.epoch, tt.pc, e.Sig, ok, tt.want, tt.found)
		}
	}
	// Depth accounting: epoch-1 lookup of A searches 2 maps.
	_, depth, _ := chain.Resolve(1, 150)
	if depth != 2 {
		t.Errorf("search depth = %d, want 2", depth)
	}
}

func TestMapChainEmptyEpochs(t *testing.T) {
	chain := NewMapChain([][]MapEntry{
		{{Start: 100, Size: 50, Sig: "A", Level: "base"}},
		nil, // epoch with no writes
		{{Start: 100, Size: 50, Sig: "C", Level: "opt"}},
	})
	if e, _, ok := chain.Resolve(1, 120); !ok || e.Sig != "A" {
		t.Errorf("empty epoch fallthrough: %+v %v", e, ok)
	}
	if e, _, ok := chain.Resolve(2, 120); !ok || e.Sig != "C" {
		t.Errorf("latest epoch: %+v %v", e, ok)
	}
}

func TestReadMapChainFromDisk(t *testing.T) {
	disk := kernel.NewDisk()
	var b0, b2 bytes.Buffer
	WriteMapFile(&b0, []MapEntry{{Start: 10, Size: 5, Sig: "X", Level: "base"}})
	WriteMapFile(&b2, []MapEntry{{Start: 20, Size: 5, Sig: "Y", Level: "opt"}})
	disk.Append(MapPath(7, 0), b0.Bytes())
	// epoch 1 missing, epoch 2 present
	disk.Append(MapPath(7, 2), b2.Bytes())
	chain, err := ReadMapChain(disk, 7)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Epochs() != 3 {
		t.Fatalf("epochs = %d, want 3", chain.Epochs())
	}
	if e, _, ok := chain.Resolve(2, 12); !ok || e.Sig != "X" {
		t.Errorf("backward search across gap: %+v %v", e, ok)
	}
	if e, _, ok := chain.Resolve(2, 22); !ok || e.Sig != "Y" {
		t.Errorf("epoch 2 entry: %+v %v", e, ok)
	}
	// Unknown pid: empty chain, no error.
	empty, err := ReadMapChain(disk, 99)
	if err != nil || empty.Epochs() != 0 {
		t.Errorf("unknown pid: %v, %d epochs", err, empty.Epochs())
	}
}

func newTestMachine() *kernel.Machine {
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	return kernel.NewMachine(core, 1)
}

func TestRuntimeRegistry(t *testing.T) {
	rt := NewRuntime()
	epoch := 0
	rt.RegisterJIT(5, 0x6000_0000, 0x6800_0000, func() int { return epoch })
	if !rt.Registered(5) || rt.Registered(6) {
		t.Error("registration state wrong")
	}
	if jit, e := rt.Check(5, 0x6100_0000); !jit || e != 0 {
		t.Errorf("Check inside = %v,%d", jit, e)
	}
	epoch = 3
	if _, e := rt.Check(5, 0x6100_0000); e != 3 {
		t.Errorf("epoch not live: %d", e)
	}
	if jit, _ := rt.Check(5, 0x5000_0000); jit {
		t.Error("Check outside region matched")
	}
	if jit, _ := rt.Check(6, 0x6100_0000); jit {
		t.Error("Check wrong pid matched")
	}
	if rt.Stack(5, 4) != nil {
		t.Error("stack walker before attach")
	}
	rt.AttachStackWalker(5, func(max int) []addr.Address { return []addr.Address{1, 2} })
	if got := rt.Stack(5, 4); len(got) != 2 {
		t.Errorf("stack = %v", got)
	}
	checks, hits := rt.Stats()
	if checks < 4 || hits != 2 {
		t.Errorf("stats = %d/%d", checks, hits)
	}
	rt.UnregisterJIT(5)
	if jit, _ := rt.Check(5, 0x6100_0000); jit {
		t.Error("Check after unregister matched")
	}
}
