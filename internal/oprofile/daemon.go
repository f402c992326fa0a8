package oprofile

import (
	"bytes"
	"errors"
	"sort"
	"sync"

	"viprof/internal/kernel"
	"viprof/internal/record"
)

// The user-level daemon. "Periodically, this daemon processes the
// sample buffer and writes the samples to disk" (§3). It is "the main
// source of profiling overhead, [so] extra care must be taken to ensure
// minimal work is done by this daemon".
//
// Durability: each flush is one framed, checksummed record (see
// internal/record) holding the whole dirty delta map. A write that
// fails mid-record leaves a torn record the salvage reader drops, and
// the daemon retries the full delta later — so a failed flush can never
// double-count and never silently vanishes. Failures are counted in
// FlushErrors; when the backlog exceeds SpillMax keys, the tail of the
// key space is parked on disk as framed, journaled spill records (see
// spill.go) that the recovery pass re-merges — bounded memory,
// recoverable loss. Only if the spill path itself keeps failing does a
// hard cap drop the far tail into SpilledLost: bounded memory first,
// accountable loss as the last resort.

// DaemonConfig tunes the daemon.
type DaemonConfig struct {
	// WakeCycles is the periodic wake interval (default ~100 ms of
	// simulated time).
	WakeCycles uint64
	// BatchMax bounds samples processed per CPU shard per wake (0 = all).
	BatchMax int
	// SpillMax bounds the dirty map across failed flushes: beyond this
	// many keys the sorted tail is spilled to the framed on-disk spill
	// file (default 8192; the real daemon's event buffer is similarly
	// bounded). If spilling itself fails, a hard cap of 4x SpillMax
	// drops the far tail with its count accumulated in SpilledLost.
	SpillMax int
}

// DaemonStatsFile is where the daemon persists its own counters at
// clean shutdown, so the offline integrity check can compare the disk
// contents against what the daemon believed it wrote. A crashed daemon
// never writes it — its absence is itself the degradation signal.
const DaemonStatsFile = "var/lib/oprofile/oprofiled.stats"

// Daemon drains the driver buffer, aggregates counts, and appends
// deltas to the sample file on the simulated disk.
type Daemon struct {
	drv *Driver
	cfg DaemonConfig

	proc *kernel.Process

	counts map[Key]uint64 // lifetime aggregate (also what gets flushed)
	dirty  map[Key]uint64 // deltas since last successful disk flush

	// perSampleOps is the daemon-side logging cost per sample.
	perSampleOps int

	samplesLogged uint64
	// samplesLoggedCPU splits samplesLogged by the CPU the sample was
	// taken on; the per-CPU entries always sum to the aggregate.
	samplesLoggedCPU []uint64
	// horizons tracks, per process, the highest GC epoch each CPU has
	// observed in that process's JIT samples. An epoch is closed for
	// attribution only when every observing CPU has passed it — the
	// cross-core horizon rule (see EpochHorizons).
	horizons map[string]map[int]int

	flushes     uint64
	flushErrors uint64
	backoff     uint // consecutive failed flushes (shifts the sleep)
	crashed     bool // killed mid-write by fault injection
	stopped     bool

	// Spill bookkeeping (see spill.go). spillSeq is burned per attempt;
	// spilledOnDisk counts samples parked in committed spill frames;
	// spilledLost counts samples the hard cap had to drop outright,
	// broken down per event mnemonic in spilledLostByEvent and per CPU
	// in spilledLostCPU (the per-CPU disk-conservation equality closes
	// with it — parked samples carry their CPU in the key, losses must
	// be attributed the same way).
	spillSeq           uint64
	spillBatches       uint64
	spillErrors        uint64
	journalErrors      uint64
	spilledOnDisk      uint64
	spilledLost        uint64
	spilledLostByEvent map[string]uint64
	spilledLostCPU     map[int]uint64
}

// StartDaemon spawns the oprofiled process. It runs as a system daemon
// (it never keeps the machine alive) and flushes remaining samples when
// the last workload process exits.
func StartDaemon(m *kernel.Machine, drv *Driver, cfg DaemonConfig) (*Daemon, error) {
	if cfg.WakeCycles == 0 {
		cfg.WakeCycles = 340_000 // 100 ms at the simulated 3.4 MHz clock
	}
	if cfg.SpillMax == 0 {
		cfg.SpillMax = 8192
	}
	d := &Daemon{
		drv:                drv,
		cfg:                cfg,
		counts:             make(map[Key]uint64),
		dirty:              make(map[Key]uint64),
		horizons:           make(map[string]map[int]int),
		perSampleOps:       420,
		spilledLostByEvent: make(map[string]uint64),
		spilledLostCPU:     make(map[int]uint64),
	}
	proc, err := m.Kern.NewProcess("oprofiled", d)
	if err != nil {
		return nil, err
	}
	proc.Daemon = true
	d.proc = proc
	drv.OnWatermark = func() { m.Kern.Wake(proc) }
	return d, nil
}

// Step implements kernel.Executor: wake, drain, aggregate, flush,
// sleep. After a failed flush the sleep backs off exponentially so a
// sick disk is not hammered at full wake rate.
func (d *Daemon) Step(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
	if d.stopped || d.crashed {
		return kernel.StepExit
	}
	d.processBatch(m, d.cfg.BatchMax)
	if d.crashed {
		return kernel.StepExit
	}
	m.Kern.Sleep(p, d.cfg.WakeCycles<<d.backoff)
	return kernel.StepBlocked
}

// processBatch drains and logs up to max samples per CPU shard, then
// flushes deltas to disk. Runs in the daemon's (or, during final flush,
// the caller's) process context.
func (d *Daemon) processBatch(m *kernel.Machine, max int) {
	shards := d.drv.DrainShards(max)
	total := 0
	for _, shard := range shards {
		total += len(shard)
	}
	if total > 0 {
		// Daemon-side logging cost: read the buffer via the module,
		// then per-sample accounting in user space at oprofiled's
		// (unmodelled) text — charged as kernel read + user aggregate.
		m.Kern.ExecKernel("op_read_buffer", 40+total*d.perSampleOps/4, 1)
		d.aggregateShards(shards)
	}
	if len(d.dirty) > 0 {
		d.flush(m)
	}
}

// shardAgg is one drain worker's private accumulation: a shard-local
// count map plus the shard's epoch horizon. Workers share nothing; the
// merge below is the only point their results meet.
type shardAgg struct {
	counts  map[Key]uint64
	n       uint64
	horizon map[string]int // proc -> max epoch seen in this shard
}

func aggregateShard(shard []Sample) *shardAgg {
	a := &shardAgg{counts: make(map[Key]uint64), horizon: make(map[string]int)}
	for _, s := range shard {
		a.counts[KeyOf(s)]++
		a.n++
		if s.JIT {
			if ep, ok := a.horizon[s.Proc]; !ok || s.Epoch > ep {
				a.horizon[s.Proc] = s.Epoch
			}
		}
	}
	return a
}

// aggregateShards folds drained per-CPU shards into the daemon's
// aggregate maps. With more than one non-empty shard the per-shard
// aggregation runs on one goroutine per shard — the profiler's first
// genuinely parallel hot path under GOMAXPROCS>1. Determinism holds
// because each worker touches only its own shard and its own local
// maps, and the merge always walks shards in ascending CPU order.
func (d *Daemon) aggregateShards(shards [][]Sample) {
	aggs := make([]*shardAgg, len(shards))
	nonEmpty := 0
	for _, shard := range shards {
		if len(shard) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty > 1 {
		var wg sync.WaitGroup
		for ci, shard := range shards {
			if len(shard) == 0 {
				continue
			}
			wg.Add(1)
			go func(ci int, shard []Sample) {
				defer wg.Done()
				aggs[ci] = aggregateShard(shard)
			}(ci, shard)
		}
		wg.Wait()
	} else {
		for ci, shard := range shards {
			if len(shard) > 0 {
				aggs[ci] = aggregateShard(shard)
			}
		}
	}
	for ci, a := range aggs {
		if a == nil {
			continue
		}
		for k, c := range a.counts {
			d.counts[k] += c
			d.dirty[k] += c
		}
		d.samplesLogged += a.n
		for len(d.samplesLoggedCPU) <= ci {
			d.samplesLoggedCPU = append(d.samplesLoggedCPU, 0)
		}
		d.samplesLoggedCPU[ci] += a.n
		for proc, ep := range a.horizon {
			hm := d.horizons[proc]
			if hm == nil {
				hm = make(map[int]int)
				d.horizons[proc] = hm
			}
			if cur, ok := hm[ci]; !ok || ep > cur {
				hm[ci] = ep
			}
		}
	}
}

// flush writes the dirty delta map as one framed record per CPU, in
// ascending CPU order. Each record commits (or tears) independently:
// its keys leave the dirty map the moment its write succeeds, so a
// committed group is never retried (no double-count), and a crash
// mid-flush leaves exactly a prefix of the CPUs persisted — the
// partial state the chaos harness's subset-shard scenario exercises.
// On failure the remaining groups stay dirty for retry (the torn
// record on disk fails its checksum) and are bounded by spillExcess.
func (d *Daemon) flush(m *kernel.Machine) {
	order := make([]Key, 0, len(d.dirty))
	for k := range d.dirty {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool { return keyLess(order[i], order[j]) })
	var cpus []int
	groups := make(map[int][]Key)
	for _, k := range order {
		if _, ok := groups[k.CPU]; !ok {
			cpus = append(cpus, k.CPU)
		}
		groups[k.CPU] = append(groups[k.CPU], k)
	}
	sort.Ints(cpus)
	for _, ci := range cpus {
		g := groups[ci]
		var buf bytes.Buffer
		WriteCounts(&buf, d.dirty, g)
		err := m.Kern.SysWrite(d.proc, SampleFile, record.Frame(buf.Bytes()))
		switch {
		case err == nil:
			for _, k := range g {
				delete(d.dirty, k)
			}
		case errors.Is(err, kernel.ErrCrashed):
			// Killed mid-write. The torn record on disk fails its
			// checksum; whatever was still dirty — this CPU's group and
			// every later one — is lost with the process. The missing
			// stats file is the durable evidence.
			d.crashed = true
			d.stopped = true
			return
		default:
			d.flushErrors++
			if d.backoff < 6 {
				d.backoff++
			}
			// Earlier groups already committed and left the dirty map;
			// re-derive the surviving sorted order for the spill bound.
			rest := make([]Key, 0, len(d.dirty))
			for _, k := range order {
				if _, ok := d.dirty[k]; ok {
					rest = append(rest, k)
				}
			}
			d.spillExcess(m, rest)
			return
		}
	}
	d.flushes++
	d.backoff = 0
}

// spillExcess bounds the dirty map after failed flushes by parking the
// sorted tail of the key space on disk as framed, journaled spill
// records. The commit order is the whole protocol: frames first (one
// write), journal ratification second, and only then do the keys leave
// the dirty map — so every sample is, at every instant, accounted in
// exactly one of {dirty, committed spill, lost}. Deterministic (sorted
// order) and loud (counted), never silent.
func (d *Daemon) spillExcess(m *kernel.Machine, order []Key) {
	if d.cfg.SpillMax <= 0 || len(d.dirty) <= d.cfg.SpillMax {
		return
	}
	tail := order[d.cfg.SpillMax:]
	// Burn the sequence number even if this attempt fails: a later
	// attempt's journal commit must never ratify a stale frame left by
	// a torn earlier write.
	seq := d.spillSeq
	d.spillSeq++
	frames := buildSpillFrames(seq, d.dirty, tail)
	if err := m.Kern.SysWrite(d.proc, SpillFile, frames); err != nil {
		if errors.Is(err, kernel.ErrCrashed) {
			d.crashed = true
			d.stopped = true
			return
		}
		d.spillErrors++
		d.hardCap(order)
		return
	}
	var total uint64
	for _, k := range tail {
		total += d.dirty[k]
	}
	if err := m.Kern.SysWrite(d.proc, DaemonJournalFile, record.CommitFrame(SpillCommitVerb, seq, total)); err != nil {
		if errors.Is(err, kernel.ErrCrashed) {
			d.crashed = true
			d.stopped = true
			return
		}
		// The frames landed but were never ratified: recovery discards
		// them and the keys stay dirty — adopting samples that are still
		// accounted unflushed would double-count.
		d.spillErrors++
		d.journalErrors++
		d.hardCap(order)
		return
	}
	for _, k := range tail {
		d.spilledOnDisk += d.dirty[k]
		delete(d.dirty, k)
	}
	d.spillBatches++
}

// hardCap is the last-resort memory bound when the spill path itself
// keeps failing: beyond 4x SpillMax keys the sorted far tail is
// dropped outright, its sample count accumulated in SpilledLost per
// event. Loud, bounded, and only reachable through repeated disk
// failure.
func (d *Daemon) hardCap(order []Key) {
	if d.cfg.SpillMax <= 0 {
		return
	}
	limit := 4 * d.cfg.SpillMax
	if len(d.dirty) <= limit {
		return
	}
	for _, k := range order[limit:] {
		c, ok := d.dirty[k]
		if !ok {
			continue
		}
		d.spilledLost += c
		d.spilledLostByEvent[k.Event.String()] += c
		d.spilledLostCPU[k.CPU] += c
		delete(d.dirty, k)
	}
}

// FinalFlush drains everything left and writes it out; call after the
// workload exits (opcontrol --shutdown). A crashed daemon stays dead —
// restarting it here would fake durability the run did not have.
func (d *Daemon) FinalFlush(m *kernel.Machine) {
	if d.crashed {
		return
	}
	d.processBatch(m, 0)
	// The shutdown path gets a couple of immediate retries: this is the
	// last chance to persist, and the run is over so backoff sleeps no
	// longer apply.
	for retry := 0; retry < 2 && len(d.dirty) > 0 && !d.crashed; retry++ {
		d.flush(m)
	}
	d.stopped = true
	if !d.crashed {
		d.writeStats(m)
	}
	m.Kern.Wake(d.proc)
}

// writeStats persists the daemon's view of the run as one framed
// PersistedStats record. Best-effort: if this very write faults there is no
// meta-meta-file to record that in — the reader treats a missing or
// torn stats file as degradation.
func (d *Daemon) writeStats(m *kernel.Machine) {
	var unflushed uint64
	for _, c := range d.dirty {
		unflushed += c
	}
	ds := d.drv.Stats()
	ps := PersistedStats{
		NMIs: ds.NMIs, Logged: ds.Logged, Dropped: ds.Dropped,
		SamplesLogged: d.samplesLogged, Flushes: d.flushes, FlushErrors: d.flushErrors,
		Spilled: d.spilledOnDisk + d.spilledLost, Unflushed: unflushed,
		SpilledOnDisk: d.spilledOnDisk, SpilledLost: d.spilledLost,
		SpillBatches: d.spillBatches, SpillErrors: d.spillErrors, JournalErrors: d.journalErrors,
		SpilledLostByEvent: d.spilledLostByEvent,
		Clean:              true,
	}
	if d.drv.NumCPU() > 1 {
		ps.PerCPU = map[string]map[int]uint64{
			"nmis": {}, "logged": {}, "dropped": {}, "samples_logged": {}, "spilled_lost": {},
		}
		for ci := 0; ci < d.drv.NumCPU(); ci++ {
			cs := d.drv.StatsCPU(ci)
			ps.PerCPU["nmis"][ci] = cs.NMIs
			ps.PerCPU["logged"][ci] = cs.Logged
			ps.PerCPU["dropped"][ci] = cs.Dropped
			var sl uint64
			if ci < len(d.samplesLoggedCPU) {
				sl = d.samplesLoggedCPU[ci]
			}
			ps.PerCPU["samples_logged"][ci] = sl
			if lost := d.spilledLostCPU[ci]; lost > 0 {
				ps.PerCPU["spilled_lost"][ci] = lost
			}
		}
	}
	// Deliberately discarded: oprofiled.stats is the crash-signal-by-
	// absence protocol — the reader treats a missing or torn stats file
	// as an unclean shutdown, which is exactly the verdict a failed
	// stats write deserves, and there is no meta-meta-file to escalate to.
	//viplint:allow syswrite-err stats absence IS the degradation signal; nowhere to escalate
	_ = m.Kern.SysWrite(d.proc, DaemonStatsFile, record.Frame(record.EncodeKV(ps.Fields())))
}

// Counts returns the daemon's lifetime aggregate (tests and in-memory
// reporting).
func (d *Daemon) Counts() map[Key]uint64 {
	out := make(map[Key]uint64, len(d.counts))
	for k, v := range d.counts {
		out[k] = v
	}
	return out
}

// SamplesLogged returns the number of samples aggregated.
func (d *Daemon) SamplesLogged() uint64 { return d.samplesLogged }

// SamplesLoggedCPU returns the per-CPU split of SamplesLogged, indexed
// by CPU id. The slice may be shorter than the machine's core count if
// higher CPUs never produced a sample.
func (d *Daemon) SamplesLoggedCPU() []uint64 {
	out := make([]uint64, len(d.samplesLoggedCPU))
	copy(out, d.samplesLoggedCPU)
	return out
}

// EpochHorizons returns, per process, the closed epoch horizon: the
// highest GC epoch that every CPU which has observed that process's
// JIT samples has reached. Attribution for epochs at or below the
// horizon is final — no core can still deliver samples tagged with an
// older epoch mapping — while epochs above it may still be in flight
// on some core. This is the cross-core generalization of the
// single-core rule "the current epoch is still open".
func (d *Daemon) EpochHorizons() map[string]int {
	out := make(map[string]int, len(d.horizons))
	for proc, hm := range d.horizons {
		first := true
		min := 0
		for _, ep := range hm {
			if first || ep < min {
				min = ep
				first = false
			}
		}
		out[proc] = min
	}
	return out
}

// Flushes returns the number of successful disk flushes.
func (d *Daemon) Flushes() uint64 { return d.flushes }

// FlushErrors returns the number of failed disk flushes.
func (d *Daemon) FlushErrors() uint64 { return d.flushErrors }

// Spilled returns the number of samples that left the dirty map
// through the spill path — parked on disk plus hard-cap losses.
func (d *Daemon) Spilled() uint64 { return d.spilledOnDisk + d.spilledLost }

// SpilledOnDisk returns the samples parked in committed spill frames.
func (d *Daemon) SpilledOnDisk() uint64 { return d.spilledOnDisk }

// SpilledLost returns the samples the hard cap dropped outright.
func (d *Daemon) SpilledLost() uint64 { return d.spilledLost }

// SpilledLostCPU splits SpilledLost by the CPU of each dropped key, so
// the per-CPU disk-conservation equality closes exactly even after
// hard-cap losses (the aggregate-only gap noted in ROADMAP's SMP
// follow-ups).
func (d *Daemon) SpilledLostCPU() map[int]uint64 {
	out := make(map[int]uint64, len(d.spilledLostCPU))
	for ci, c := range d.spilledLostCPU {
		out[ci] = c
	}
	return out
}

// SpillBatches returns the number of committed spill attempts.
func (d *Daemon) SpillBatches() uint64 { return d.spillBatches }

// SpillErrors returns the number of failed spill attempts.
func (d *Daemon) SpillErrors() uint64 { return d.spillErrors }

// JournalErrors returns the number of failed journal-commit writes.
func (d *Daemon) JournalErrors() uint64 { return d.journalErrors }

// Crashed reports whether fault injection killed the daemon mid-write.
func (d *Daemon) Crashed() bool { return d.crashed }

// Unflushed returns the samples still in the dirty map (aggregated but
// never successfully persisted).
func (d *Daemon) Unflushed() uint64 {
	var n uint64
	for _, c := range d.dirty {
		n += c
	}
	return n
}

// UnflushedCPU splits Unflushed by the CPU of each dirty key — the
// per-CPU conservation checks close their equations with it.
func (d *Daemon) UnflushedCPU() map[int]uint64 {
	out := make(map[int]uint64)
	for k, c := range d.dirty {
		out[k.CPU] += c
	}
	return out
}

// keyLess is the total order flush and spill serialize keys in. Proc
// and JIT come last as tie-breakers, so keys that differ only there
// still sort the same way whatever the map's iteration order.
func keyLess(a, b Key) bool {
	if a.Event != b.Event {
		return a.Event < b.Event
	}
	if a.Image != b.Image {
		return a.Image < b.Image
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Off != b.Off {
		return a.Off < b.Off
	}
	if a.CPU != b.CPU {
		return a.CPU < b.CPU
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return !a.JIT && b.JIT
}
