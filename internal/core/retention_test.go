package core

import (
	"strings"
	"testing"

	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

func retentionMachine(seed int64) *kernel.Machine {
	return kernel.NewMachine(cpu.New(hpc.NewBank(), cache.DefaultHierarchy()), seed)
}

func quarantinePath(i byte) string {
	return "var/lib/viprof/jit-maps/9/epoch-" + string('0'+i) + ".map.tmp.quarantined"
}

func TestRetentionNoopOnCleanDisk(t *testing.T) {
	m := retentionMachine(1)
	stats := RunRetention(m, RetentionPolicy{})
	if !stats.Clean || stats.Scanned != 0 || stats.Pruned != 0 {
		t.Fatalf("clean-disk pass: %+v", stats)
	}
	if m.Kern.Disk().Exists(oprofile.RetentionStatsFile) {
		t.Fatal("clean-disk pass left a ledger file")
	}
}

func TestRetentionBoundsCountAndSize(t *testing.T) {
	m := retentionMachine(2)
	disk := m.Kern.Disk()
	for i := byte(0); i < 6; i++ {
		disk.Append(quarantinePath(i), make([]byte, 100*(int(i)+1)))
	}
	stats := RunRetention(m, RetentionPolicy{MaxQuarantineFiles: 4, MaxQuarantineBytes: 700, MaxAgePasses: -1})
	if !stats.Clean || stats.Scanned != 6 {
		t.Fatalf("pass: %+v", stats)
	}
	if stats.Kept+stats.Pruned != 6 || stats.Pruned == 0 {
		t.Fatalf("kept %d + pruned %d != scanned", stats.Kept, stats.Pruned)
	}
	if stats.Kept > 4 || stats.KeptBytes > 700 {
		t.Fatalf("bounds violated: kept=%d keptBytes=%d", stats.Kept, stats.KeptBytes)
	}
	// Pruned files are gone; kept files (the survivor ledger) remain.
	remaining := 0
	for _, p := range disk.List() {
		if strings.HasSuffix(p, QuarantineSuffix) {
			remaining++
			if _, ok := stats.Survivors[p]; !ok {
				t.Errorf("remaining file %q not in survivor ledger", p)
			}
		}
	}
	if remaining != stats.Kept {
		t.Fatalf("%d files remain, ledger says %d kept", remaining, stats.Kept)
	}
	// The ledger itself is framed and parseable.
	data, err := disk.Read(oprofile.RetentionStatsFile)
	if err != nil {
		t.Fatal(err)
	}
	persisted := lastRetentionRecord(data)
	if persisted == nil || persisted.Pruned != stats.Pruned || len(persisted.Survivors) != stats.Kept {
		t.Fatalf("persisted ledger mismatch: %+v vs %+v", persisted, stats)
	}
}

// lastRetentionRecord decodes the ledger's last intact record, the
// way the retention pass and the report read it; nil if none decodes.
func lastRetentionRecord(data []byte) *oprofile.RetentionStats {
	recs, _ := record.Scan(data)
	var rs oprofile.RetentionStats
	if len(recs) == 0 || record.DecodeKV(recs[len(recs)-1], rs.Fields()) != nil {
		return nil
	}
	return &rs
}

func TestRetentionAgesAcrossPasses(t *testing.T) {
	m := retentionMachine(3)
	disk := m.Kern.Disk()
	disk.Append(quarantinePath(0), make([]byte, 64))
	pol := RetentionPolicy{MaxQuarantineFiles: -1, MaxQuarantineBytes: -1, MaxAgePasses: 3}
	for pass := 1; pass <= 3; pass++ {
		stats := RunRetention(m, pol)
		if stats.Pruned != 0 {
			t.Fatalf("pass %d pruned early: %+v", pass, stats)
		}
		if got := stats.Survivors[quarantinePath(0)]; got != uint64(pass) {
			t.Fatalf("pass %d: age %d", pass, got)
		}
	}
	stats := RunRetention(m, pol)
	if stats.AgePruned != 1 || stats.Pruned != 1 {
		t.Fatalf("4th pass should age-prune: %+v", stats)
	}
	if disk.Exists(quarantinePath(0)) {
		t.Fatal("age-pruned file still on disk")
	}
}

// TestRetentionPersistBeforePrune pins the evidence-safety ordering: if
// the ledger write fails, nothing may be removed.
func TestRetentionPersistBeforePrune(t *testing.T) {
	m := retentionMachine(4)
	disk := m.Kern.Disk()
	for i := byte(0); i < 3; i++ {
		disk.Append(quarantinePath(i), make([]byte, 64))
	}
	m.Kern.SetFaultInjectors(kernel.FaultPlan{
		Seed:       4,
		PathPrefix: oprofile.RetentionStatsFile,
		PEIO:       1.0,
		MaxFaults:  1,
	})
	stats := RunRetention(m, RetentionPolicy{MaxQuarantineFiles: 1, MaxQuarantineBytes: -1, MaxAgePasses: -1})
	if stats.StatsErrors != 1 || stats.Clean {
		t.Fatalf("ledger write should have failed: %+v", stats)
	}
	for i := byte(0); i < 3; i++ {
		if !disk.Exists(quarantinePath(i)) {
			t.Fatalf("file %d pruned despite failed ledger write", i)
		}
	}
}

// TestRetentionSurfacedInIntegrity checks the report plumbing: a pass
// that pruned shows up in the Integrity section, and a damaged ledger
// degrades the run.
func TestRetentionSurfacedInIntegrity(t *testing.T) {
	m := retentionMachine(5)
	disk := m.Kern.Disk()
	for i := byte(0); i < 3; i++ {
		disk.Append(quarantinePath(i), make([]byte, 64))
	}
	stats := RunRetention(m, RetentionPolicy{MaxQuarantineFiles: 1, MaxQuarantineBytes: -1, MaxAgePasses: -1})
	if stats.Pruned != 2 {
		t.Fatalf("setup: %+v", stats)
	}
	_, _, err := Vipreport(disk, StandardImages(m), nil, []hpc.Event{hpc.GlobalPowerEvents})
	if err != nil {
		t.Fatal(err)
	}
	// Re-assemble just the integrity piece the way Vipreport does.
	data, err := disk.Read(oprofile.RetentionStatsFile)
	if err != nil {
		t.Fatal(err)
	}
	rt := lastRetentionRecord(data)
	if rt == nil || rt.Pruned != 2 {
		t.Fatalf("persisted retention not readable: %+v", rt)
	}
	// Against a clean baseline (daemon stats present and clean), a
	// successful prune must not flip the run to degraded.
	clean := oprofile.Integrity{Stats: &oprofile.PersistedStats{Clean: true}}
	if clean.Degraded() {
		t.Fatal("baseline integrity unexpectedly degraded")
	}
	withRetention := clean
	withRetention.Retention = rt
	if withRetention.Degraded() {
		t.Fatal("successful pruning alone must not degrade the run")
	}
	// Now damage the ledger: existing but unparseable.
	disk.Remove(oprofile.RetentionStatsFile)
	disk.Append(oprofile.RetentionStatsFile, []byte("garbage, not a frame"))
	integ2 := &oprofile.Integrity{RetentionDamaged: true}
	if !integ2.Degraded() {
		t.Fatal("damaged retention ledger must degrade the run")
	}
	var sb strings.Builder
	if err := oprofile.FormatIntegrity(&sb, &oprofile.Integrity{Retention: rt, RetentionDamaged: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "retention:") || !strings.Contains(out, "DAMAGED") {
		t.Fatalf("integrity output missing retention lines:\n%s", out)
	}
}
