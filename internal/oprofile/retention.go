package oprofile

import "viprof/internal/record"

// RetentionStats is the persisted outcome of the retention pass
// (core.RunRetention): every quarantined-evidence file it scanned, kept,
// or pruned, and why. Written as one framed record per completed pass at
// RetentionStatsFile; the last intact record is authoritative. The
// Survivors ledger doubles as the pass's age tracker: the simulated disk
// has no timestamps, so a file's age is the number of consecutive
// retention passes that have seen it.
type RetentionStats struct {
	// Scanned is every quarantined file seen this pass; Kept/KeptBytes
	// what remains after pruning; Pruned/PrunedBytes what was removed.
	Scanned, Kept, Pruned int
	KeptBytes, PrunedBytes uint64
	// Per-reason prune counts: age (survived more passes than the
	// policy allows), count (excess beyond the file budget), size
	// (excess beyond the byte budget).
	AgePruned, CountPruned, SizePruned int
	// PriorDamaged reports the previous pass's record existed but was
	// torn or unparseable — the age ledger restarted from zero.
	PriorDamaged bool
	// StatsErrors counts failed persists of this record. The pass
	// persists decisions BEFORE removing anything, so a failed persist
	// aborts the prune: evidence is never deleted untracked.
	StatsErrors int
	// Survivors maps each kept file to the number of passes that have
	// seen it (its age in pass units).
	Survivors map[string]uint64
	// Clean reports the pass completed (decisions persisted; prunes,
	// if any, applied).
	Clean bool
}

// RetentionStatsFile is where the retention pass persists its ledger.
const RetentionStatsFile = "var/lib/viprof/retention.stats"

// AnyAction reports whether the pass did (or failed to do) anything
// worth surfacing.
func (rs *RetentionStats) AnyAction() bool {
	if rs == nil {
		return false
	}
	return rs.Pruned > 0 || rs.StatsErrors > 0 || rs.PriorDamaged || !rs.Clean
}

// Fields is the retention.stats layout.
func (rs *RetentionStats) Fields() []record.Field {
	return []record.Field{
		record.Int("scanned", &rs.Scanned),
		record.Int("kept", &rs.Kept),
		record.Int("pruned", &rs.Pruned),
		record.Uint("kept_bytes", &rs.KeptBytes),
		record.Uint("pruned_bytes", &rs.PrunedBytes),
		record.Int("age_pruned", &rs.AgePruned),
		record.Int("count_pruned", &rs.CountPruned),
		record.Int("size_pruned", &rs.SizePruned),
		record.Int("stats_errors", &rs.StatsErrors),
		record.Bool("prior_damaged", &rs.PriorDamaged),
		record.Map("survivor.", &rs.Survivors),
		record.Bool("clean", &rs.Clean),
	}
}
