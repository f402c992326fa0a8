package core

import (
	"bytes"
	"fmt"
	"sort"

	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/jvm"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// Post-processing. "A key to our low overhead implementation ... is
// that we delay most of the work to the offline profile analysis
// stage" (§3.2). The VIProf post-processor extends opreport's reader
// with two resolvers the baseline lacks:
//
//   - JIT.App samples resolve through the epoch code-map chain
//     (backward search across epochs);
//   - boot-image samples resolve through RVM.map, displayed under the
//     "RVM.map" image name exactly as the paper's Figure 1 shows.

// RVMMapImageName is the display image for boot-image samples
// symbolized via RVM.map (Figure 1's "RVM.map" rows). Other runtime
// personalities display under their own map name (e.g. "CLR.map").
const RVMMapImageName = "RVM.map"

// BootMap is one runtime personality's parsed boot-image symbol map.
type BootMap struct {
	// Display is the image column shown for symbolized rows.
	Display string
	// Map is the parsed symbol table.
	Map *image.Image
}

// Resolver is VIProf's sample resolver: ELF symbol tables + runtime
// boot maps (RVM.map, CLR.map, ...) + epoch code maps.
type Resolver struct {
	ELF *oprofile.ELFResolver
	// BootMaps keys boot image names (e.g. "RVM.code.image") to their
	// parsed maps; missing entries degrade to baseline behaviour.
	BootMaps map[string]BootMap
	// Chains maps pid -> that VM's epoch code maps.
	Chains map[int]*MapChain
	// PIDByProc lets JIT keys (which carry process names) find their
	// chain.
	PIDByProc map[string]int

	// SearchDepths histograms how many maps the backward search
	// examined per resolved JIT sample (ablation metric).
	SearchDepths map[int]uint64
	unresolved   uint64
}

// Resolve implements oprofile.Resolver.
func (r *Resolver) Resolve(k oprofile.Key) (string, string) {
	if k.JIT {
		pid, ok := r.PIDByProc[k.Proc]
		if !ok {
			return oprofile.JITImageName, oprofile.NoSymbols
		}
		chain, ok := r.Chains[pid]
		if !ok {
			return oprofile.JITImageName, oprofile.NoSymbols
		}
		// ResolveDurable, not Resolve: on a chain that lost entries to
		// torn files or a killed VM, samples that damage could
		// misattribute come back unresolved instead of guessed.
		entry, depth, found := chain.ResolveDurable(k.Epoch, k.Off)
		if r.SearchDepths != nil && found {
			r.SearchDepths[depth]++
		}
		if !found {
			r.unresolved++
			return oprofile.JITImageName, oprofile.NoSymbols
		}
		return oprofile.JITImageName, entry.Sig
	}
	if bm, ok := r.BootMaps[k.Image]; ok && bm.Map != nil {
		if s, found := bm.Map.Resolve(k.Off); found {
			return bm.Display, s.Name
		}
		return bm.Display, oprofile.NoSymbols
	}
	return r.ELF.Resolve(k)
}

// Unresolved returns how many JIT samples no code map could explain.
func (r *Resolver) Unresolved() uint64 { return r.unresolved }

// NewResolver assembles a VIProf resolver from the simulated disk: it
// parses RVM.map and every registered VM's code-map chain.
func NewResolver(disk *kernel.Disk, images map[string]*image.Image, vmPIDs map[string]int) (*Resolver, error) {
	r := &Resolver{
		ELF:          &oprofile.ELFResolver{Images: images},
		BootMaps:     make(map[string]BootMap),
		Chains:       make(map[int]*MapChain),
		PIDByProc:    vmPIDs,
		SearchDepths: make(map[int]uint64),
	}
	for _, pers := range jvm.Personalities() {
		//viplint:allow record-frame RVM.map is the legacy line-oriented text format; ReadRVMMap fails per-line, a torn tail loses at most trailing symbols
		data, err := disk.Read(pers.MapFileName)
		if err != nil {
			continue // personality not present in this run
		}
		im, err := image.ReadRVMMap(bytes.NewReader(data), pers.BootImageName)
		if err != nil {
			return nil, fmt.Errorf("viprof: parsing %s: %v", pers.MapFileName, err)
		}
		r.BootMaps[pers.BootImageName] = BootMap{Display: pers.MapDisplay, Map: im}
	}
	for _, pid := range vmPIDs {
		chain, err := ReadMapChain(disk, pid)
		if err != nil {
			return nil, err
		}
		r.Chains[pid] = chain
	}
	return r, nil
}

// StandardImages assembles the symbol-table set a report run needs:
// the kernel, every loaded module, and each VM's native images (libc,
// bootstrap loader, agent library). The boot image is deliberately
// absent — its symbols come from RVM.map, not an ELF table.
func StandardImages(m *kernel.Machine, vms ...*jvm.VM) map[string]*image.Image {
	images := map[string]*image.Image{
		"vmlinux": m.Kern.Vmlinux(),
	}
	for _, mod := range m.Kern.Modules() {
		images[mod.Image.Name] = mod.Image
	}
	for _, vm := range vms {
		for _, im := range vm.NativeImages() {
			images[im.Name] = im
		}
	}
	return images
}

// Vipreport builds the vertically integrated report — the upper half of
// the paper's Figure 1 — from the sample file, the code maps, and
// RVM.map on the simulated disk. vmPIDs maps VM process names (as they
// appear in samples) to pids.
//
// It is tolerant of damage: a missing sample file, torn records, or
// damaged code maps produce a report of whatever survived, with every
// loss accounted in the attached Integrity section. Only structural
// corruption (a checksum-valid record that cannot parse — a writer bug)
// still errors.
func Vipreport(disk *kernel.Disk, images map[string]*image.Image, vmPIDs map[string]int,
	events []hpc.Event) (*oprofile.Report, *Resolver, error) {
	integ := &oprofile.Integrity{}
	var counts map[oprofile.Key]uint64
	data, err := disk.Read(oprofile.SampleFile)
	if err != nil {
		integ.SampleFileMissing = true
		counts = make(map[oprofile.Key]uint64)
	} else {
		var sal record.Salvage
		counts, sal, err = oprofile.ReadCountsSalvage(data)
		if err != nil {
			return nil, nil, err
		}
		integ.SampleRecords = sal.Records
		integ.SampleDroppedRecords = sal.DroppedRecords
		integ.SampleDroppedBytes = sal.DroppedBytes
	}
	// The daemon writes its stats once, at clean shutdown: anything but
	// exactly one intact record is as untrustworthy as no file at all.
	var ps oprofile.PersistedStats
	if p, ok := record.ReadFile(disk, oprofile.DaemonStatsFile).Only(); ok && record.DecodeKV(p, ps.Fields()) == nil {
		integ.Stats = &ps
	}
	// Spill and recovery evidence. The spill state is re-read from disk
	// (not taken from the daemon's self-counters) so the report reflects
	// what recovery actually left behind.
	spillSt := oprofile.ReadSpillState(disk)
	integ.SpillOnDisk = spillSt.OnDiskTotal
	integ.SpillJournalDamaged = spillSt.Journal.Damaged
	// One record per completed recovery attempt; the last intact one
	// wins. A file with no intact decision record, or durable begin
	// markers with no decision record, mean a recovery pass started and
	// never finished.
	rf := record.ReadFile(disk, oprofile.RecoveryStatsFile)
	var rs oprofile.RecoveryStats
	if p, ok := rf.Last(); ok && record.DecodeKV(p, rs.Fields()) == nil {
		integ.Recovery = &rs
	}
	if integ.Recovery == nil && (!rf.Missing || spillSt.Journal.Markers > 0) {
		integ.RecoveryIncomplete = true
	}
	// One retention record per completed pass; the last intact one
	// wins. A ledger with no intact record (or an unreadable one) means
	// age tracking is broken — loudly.
	tf := record.ReadFile(disk, oprofile.RetentionStatsFile)
	var rt oprofile.RetentionStats
	if p, ok := tf.Last(); ok && record.DecodeKV(p, rt.Fields()) == nil {
		integ.Retention = &rt
	}
	integ.RetentionDamaged = !tf.Missing && integ.Retention == nil
	// Per-event spill accounting: what recovery merged back vs what the
	// daemon's hard cap dropped for good.
	spillEvents := make(map[string]*oprofile.SpillIntegrity)
	addSpill := func(ev string) *oprofile.SpillIntegrity {
		si, ok := spillEvents[ev]
		if !ok {
			si = &oprofile.SpillIntegrity{Event: ev}
			spillEvents[ev] = si
		}
		return si
	}
	if integ.Recovery != nil {
		for ev, c := range integ.Recovery.SpillRecovered {
			addSpill(ev).Recovered += c
		}
	}
	if integ.Stats != nil {
		for ev, c := range integ.Stats.SpilledLostByEvent {
			addSpill(ev).Lost += c
		}
	}
	spillNames := make([]string, 0, len(spillEvents))
	for ev := range spillEvents {
		spillNames = append(spillNames, ev)
	}
	sort.Strings(spillNames)
	for _, ev := range spillNames {
		integ.Spill = append(integ.Spill, *spillEvents[ev])
	}
	res, err := NewResolver(disk, images, vmPIDs)
	if err != nil {
		return nil, nil, err
	}
	rep := oprofile.BuildReport(counts, res, events)
	integ.UnresolvedJIT = res.Unresolved()

	procs := make([]string, 0, len(vmPIDs))
	for proc := range vmPIDs {
		procs = append(procs, proc)
	}
	sort.Strings(procs)
	for _, proc := range procs {
		pid := vmPIDs[proc]
		mi := oprofile.MapIntegrity{PID: pid, Proc: proc}
		if chain, ok := res.Chains[pid]; ok {
			ci := chain.Integrity()
			mi.Files, mi.OrphanTmp, mi.Entries = ci.Files, ci.OrphanTmp, ci.Entries
			mi.DroppedRecords, mi.DroppedBytes, mi.TornFiles = ci.DroppedRecords, ci.DroppedBytes, ci.TornFiles
			mi.UnreadableFiles = ci.UnreadableFiles
			mi.Quarantined = ci.Quarantined
			mi.MissingCommitted = ci.MissingCommitted
			mi.JournalDamaged = ci.JournalDamaged
		}
		// Written once at clean VM exit: exactly one intact record.
		var ap AgentPersisted
		if p, ok := record.ReadFile(disk, AgentStatsPath(pid)).Only(); ok && record.DecodeKV(p, ap.Fields()) == nil {
			mi.AgentStatsPresent = true
			mi.AgentClean = ap.Clean
			mi.MapWriteErrors = ap.MapWriteErrors
			mi.DeferredEntries = ap.DeferredEntries
			mi.JournalErrors = ap.JournalErrors
		}
		integ.Maps = append(integ.Maps, mi)
	}
	rep.Integrity = integ
	return rep, res, nil
}
