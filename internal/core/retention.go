package core

import (
	"sort"
	"strings"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The retention pass: quarantined evidence files (*.quarantined, parked
// by the recovery pass's damaged-artifact path) are kept for inspection
// but must not accumulate forever. This pass bounds them by count, by
// total size, and by age — where "age" is the number of retention
// passes that have seen the file, tracked in the persisted survivor
// ledger, because the simulated disk has no timestamps. Decisions are
// persisted framed BEFORE any file is removed: if the ledger write
// fails, nothing is pruned, so evidence never disappears untracked.

// RetentionPolicy bounds the quarantine evidence set.
type RetentionPolicy struct {
	// MaxQuarantineFiles bounds how many quarantined files are kept
	// (default 8; 0 means default, negative means unlimited).
	MaxQuarantineFiles int
	// MaxQuarantineBytes bounds their total size (default 64 KiB;
	// 0 means default, negative means unlimited).
	MaxQuarantineBytes int
	// MaxAgePasses bounds how many retention passes a file may survive
	// (default 4; 0 means default, negative means unlimited).
	MaxAgePasses int
}

func (p *RetentionPolicy) fill() {
	if p.MaxQuarantineFiles == 0 {
		p.MaxQuarantineFiles = 8
	}
	if p.MaxQuarantineBytes == 0 {
		p.MaxQuarantineBytes = 64 << 10
	}
	if p.MaxAgePasses == 0 {
		p.MaxAgePasses = 4
	}
}

// QuarantineSuffix marks evidence files the recovery pass set aside.
const QuarantineSuffix = ".quarantined"

// RunRetention scans var/ for quarantined evidence files, ages them
// through the persisted survivor ledger, prunes past the policy bounds
// (oldest first, deterministically), and persists the decision record.
// The pass never errors the caller: every failure is counted in the
// returned stats and surfaced through Integrity.
func RunRetention(m *kernel.Machine, pol RetentionPolicy) *oprofile.RetentionStats {
	pol.fill()
	kern := m.Kern
	disk := kern.Disk()
	stats := &oprofile.RetentionStats{Survivors: make(map[string]uint64)}

	// Prior ledger (the file's last intact record): ages carry across
	// passes. A torn or unreadable ledger restarts every age from zero
	// — loudly.
	prior := make(map[string]uint64)
	if disk.Exists(oprofile.RetentionStatsFile) {
		data, err := disk.Read(oprofile.RetentionStatsFile)
		recs, _ := record.Scan(data)
		var rs oprofile.RetentionStats
		if err != nil || len(recs) == 0 || record.DecodeKV(recs[len(recs)-1], rs.Fields()) != nil {
			stats.PriorDamaged = true
		} else {
			prior = rs.Survivors
		}
	}

	type entry struct {
		path string
		size int
		age  uint64
	}
	var entries []entry
	for _, path := range disk.List() {
		if !strings.HasPrefix(path, "var/") || !strings.HasSuffix(path, QuarantineSuffix) {
			continue
		}
		size, ok := disk.Size(path)
		if !ok {
			continue // phantom dirent — the listing-damage checks own it
		}
		entries = append(entries, entry{path: path, size: size, age: prior[path] + 1})
	}
	stats.Scanned = len(entries)

	// Prune order: oldest first, then largest, then path — fully
	// deterministic for a given disk state and ledger.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].age != entries[j].age {
			return entries[i].age > entries[j].age
		}
		if entries[i].size != entries[j].size {
			return entries[i].size > entries[j].size
		}
		return entries[i].path < entries[j].path
	})

	prune := make(map[string]bool)
	reason := make(map[string]*int)
	kept := 0
	keptBytes := 0
	for _, e := range entries {
		switch {
		case pol.MaxAgePasses > 0 && e.age > uint64(pol.MaxAgePasses):
			prune[e.path] = true
			reason[e.path] = &stats.AgePruned
		case pol.MaxQuarantineFiles > 0 && kept >= pol.MaxQuarantineFiles:
			prune[e.path] = true
			reason[e.path] = &stats.CountPruned
		case pol.MaxQuarantineBytes > 0 && keptBytes+e.size > pol.MaxQuarantineBytes:
			prune[e.path] = true
			reason[e.path] = &stats.SizePruned
		default:
			kept++
			keptBytes += e.size
			stats.Survivors[e.path] = e.age
		}
	}
	stats.Kept = kept
	stats.KeptBytes = uint64(keptBytes)
	for _, e := range entries {
		if prune[e.path] {
			stats.Pruned++
			stats.PrunedBytes += uint64(e.size)
			*reason[e.path]++
		}
	}

	if stats.Pruned == 0 && stats.Scanned == 0 && !stats.PriorDamaged && !disk.Exists(oprofile.RetentionStatsFile) {
		// Nothing to track and nothing ever tracked: leave no artifacts
		// (clean runs stay byte-identical to pre-retention builds).
		stats.Clean = true
		return stats
	}

	// Persist the decision record BEFORE removing anything.
	proc, err := kern.NewProcess("viprof-retention", kernel.ExecFunc(
		func(*kernel.Machine, *kernel.Process) kernel.StepResult { return kernel.StepExit }))
	if err != nil {
		stats.StatsErrors++
		return stats
	}
	proc.Daemon = true
	stats.Clean = true
	if werr := kern.SysWriteSync(proc, oprofile.RetentionStatsFile, record.Frame(record.EncodeKV(stats.Fields()))); werr != nil {
		// Ledger write failed: abort the prune. The files stay, the
		// failure is surfaced, and the next pass retries.
		stats.StatsErrors++
		stats.Clean = false
		return stats
	}
	for _, e := range entries {
		if prune[e.path] {
			disk.Remove(e.path)
		}
	}
	return stats
}

// DefaultRetentionPolicy is the startup policy.
var DefaultRetentionPolicy = RetentionPolicy{}
