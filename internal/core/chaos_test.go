package core_test

// Chaos tests: full profiled sessions under seeded fault schedules
// (internal/harness/chaos.go), checked against the pipeline's
// degradation contract. The invariants, end to end:
//
//  1. Conservation at the driver: every NMI is logged or dropped.
//  2. Conservation at the daemon: every logged sample is aggregated or
//     still buffered.
//  3. Conservation on disk, across daemon crashes AND the recovery
//     pass: persisted + committed-spill-still-parked + unflushed +
//     spilled-lost equals aggregated — a failed flush retries its
//     whole delta, a torn record fails its checksum, spilled samples
//     are parked under a commit journal and either merged back by
//     recovery (into persisted) or still parked, so nothing
//     double-counts and nothing vanishes unaccounted.
//  4. No silent misattribution: any JIT sample the durable resolver
//     does attribute agrees with the agent's in-memory oracle (what a
//     fault-free persistence of the same execution would have said).
//  5. Visibility: destructive faults — including rename faults,
//     consequential directory damage, and offline-read EIO — imply a
//     degraded Integrity section; a run with no faults at all implies
//     a clean one.
//
// The file lives in package core_test because the harness imports core.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"viprof/internal/core"
	"viprof/internal/harness"
	"viprof/internal/jvm"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// chaosSeeds is the bounded seed sweep: the first eight seeds run each
// scenario in isolation (daemon crash, ENOSPC, torn map, torn samples,
// VM kill, rename fault, dir damage, read fault); later seeds draw
// composed schedules of 1-3 scenarios.
const chaosSeeds = 25

// chaosNightlySeedsEnv, when set to a positive integer, widens the
// sweep (make chaos-nightly sets it to 500).
const chaosNightlySeedsEnv = "VIPROF_CHAOS_SEEDS"

func TestChaosSweep(t *testing.T) {
	runChaosSweep(t, 0, chaosSeeds)
}

// TestChaosNightly is the wide seed sweep, gated behind
// VIPROF_CHAOS_SEEDS so `go test ./...` stays fast; `make
// chaos-nightly` runs it at 500 seeds.
func TestChaosNightly(t *testing.T) {
	n, err := strconv.Atoi(os.Getenv(chaosNightlySeedsEnv))
	if err != nil || n <= 0 {
		t.Skipf("set %s=<seeds> to run the nightly sweep", chaosNightlySeedsEnv)
	}
	runChaosSweep(t, 0, int64(n))
}

func runChaosSweep(t *testing.T, lo, hi int64) {
	// Aggregated over the sweep so the trailing assertion can prove the
	// misattribution checks covered runs where fused trace replay (and
	// its invalidation) was live — not a sweep that silently ran with
	// the trace cache cold.
	var mu sync.Mutex
	var traces jvm.TraceStats
	t.Run("seeds", func(t *testing.T) {
		for seed := lo; seed < hi; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d/%s", seed, harness.ScheduleOf(seed)), func(t *testing.T) {
				t.Parallel()
				r, err := harness.RunChaos(seed, 0.25)
				if err != nil {
					t.Fatalf("chaos run: %v", err)
				}
				checkChaosInvariants(t, r)
				if seed < int64(len(chaosSmokeDigests)) {
					if got := chaosDigest(t, r); got != chaosSmokeDigests[seed] {
						t.Errorf("disk + Integrity digest %s, pinned %s", got, chaosSmokeDigests[seed])
					}
				}
				mu.Lock()
				traces.Installed += r.TraceStats.Installed
				traces.Replays += r.TraceStats.Replays
				traces.OpsReplayed += r.TraceStats.OpsReplayed
				traces.Deopts += r.TraceStats.Deopts
				traces.Invalidations += r.TraceStats.Invalidations
				mu.Unlock()
			})
		}
	})
	// The inner group has fully drained its parallel subtests here.
	t.Logf("trace cache over sweep: %+v", traces)
	if traces.Installed == 0 || traces.Replays == 0 {
		t.Errorf("sweep never exercised fused trace replay (%+v): the no-misattribution checks proved nothing about the trace cache", traces)
	}
	if traces.Invalidations == 0 {
		t.Errorf("sweep never invalidated a trace (%+v): promotion/GC interaction with the trace cache went untested under faults", traces)
	}
}

// chaosSmokeDigests pins the behaviour contract of the chaos-smoke
// seeds: per seed, the SHA-256 of the rendered Integrity section plus
// every file on the run's disk (chaosDigest). A change to how the
// pipeline persists or reads back its artifacts must leave every row
// unchanged; a mismatch prints the new digest.
var chaosSmokeDigests = [...]string{
	"a045e5df0658cda2d47e1d25c990783d42e524d9b4391112f545e2396240906f", // 0 daemon-crash
	"bcce9598006cf9504022fdcea4b5934a699c21a6f3ee79f973f414f1f703c382", // 1 enospc
	"e1a48b2ac9cc8c9cb6e679d5f8a677fd60740812313295c7bfc59f2cdcd2a466", // 2 torn-map
	"27b73719f6f1a0b0ad2ddffd5fbc8b8902508d9e13bbb5e64a85845628018803", // 3 torn-samples
	"92f1c12e32248e13bfbac940749e986dd292619bf71d9a05bfb9c585941d7634", // 4 vm-kill
	"7a079d3b8960bfd542b1a911fcfbb3e35adf3757846258ef4951cd9e809a6879", // 5 rename-fault
	"dc1d0031d425cf47e1c289b1017f2542697570589ac94c09753b1aa055e41c62", // 6 dir-damage
	"a0292847d2a729d8add87e3fd82048ec23db8371b93dc953024e7730ee1fa0a0", // 7 read-fault
	"7a50308a51afcecc3e8fe2e90940d7fb184ea4762c2a2bc7848c7f8c263ae06e", // 8 shard-crash
	"75e7a0dc1e2e33b73ceb3aeae0dcb4c4ab3ea6775238afb81c66364714d2cbfd", // 9 vm-kill+shard-crash
	"c90464ea65edff882d1c80c3eec32d476e682cfd7dc106ebdd8886001df81763", // 10 daemon-crash+enospc+read-fault
	"6eae03b061ad3a183491c293428ce928f70da5cc2ba47c06293f5e094cb6e754", // 11 vm-kill+dir-damage
	"6a4c9575062ebf8e3e4094b820c5386c5252b1e0167107fa3d2d10df4028f985", // 12 shard-crash+torn-samples
	"d16a9b09e113fca2cf136840cf35f87e75b1880e650217bcf367f614313268a8", // 13 enospc
	"f906d6a2495ab7406c093c2b6b9297986fc3f3a5e3dec2bc2aec8710b7ba4de9", // 14 torn-map+torn-samples
	"a2db705feb78df3b6cabe28866147f230d73b04684745d712659bed52c7aa1dd", // 15 dir-damage
	"4dc74d9eb01263dc65f1fd886fce4baec08ab7fd4d4ad0693c1219a80696f377", // 16 torn-samples+dir-damage+enospc
	"1ff0d2b3901b1cc96cd7edd803a7e44ba73df7877f5bb20468748609f611419b", // 17 shard-crash
	"9e95a5a2144382bdef85e45a3919bdc0d9cb207fc9b028bded0a5902920a77fc", // 18 enospc+daemon-crash
	"90dc1c85c537fb90ed49e2a33d1310488c145acf171a6e2c120713ccfec9726e", // 19 read-fault+dir-damage+torn-samples
	"cde0e24639b45f6ed864a22304fdf1aa8f8a8a68a570938d1cce736e2df187a7", // 20 vm-kill+torn-map
	"64924f6519d10579df0c9f5a142c27e9e85e374e2a024a15e202b518f355c6b6", // 21 torn-map+rename-fault+vm-kill
	"c0eeb0694c1f25461103be58258045ba327192ee184bf5435cb64bbe41217eaf", // 22 rename-fault
	"6d742c2874afe9690996a4957567bd76ef38b777c66bbb1675581451e7eaa37b", // 23 dir-damage+daemon-crash
	"f99cf7c548f6c4f3428adf84e81729e5cb7993fbf73db8fea760f35cbc5fb069", // 24 shard-crash+dir-damage+rename-fault
}

// chaosDigest hashes the run's rendered Integrity section, then every
// disk file (path, length, bytes) in sorted path order.
func chaosDigest(t *testing.T, r *harness.ChaosResult) string {
	t.Helper()
	h := sha256.New()
	if err := oprofile.FormatIntegrity(h, r.Report.Integrity); err != nil {
		t.Fatal(err)
	}
	disk := r.Machine.Kern.Disk()
	for _, p := range disk.List() {
		data, err := disk.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkChaosInvariants(t *testing.T, r *harness.ChaosResult) {
	t.Helper()
	t.Logf("schedule=%s faults=%+v listFaults={dropped:%d phantoms:%d} readFaults=%+v vmKilled=%v daemonCrashed=%v recovery=%+v traces=%+v",
		r.Schedule, r.Faults, r.ListFaults.Dropped, r.ListFaults.Phantoms,
		r.ReadFaults, r.VMKilled, r.Daemon.Crashed(), r.Recovery, r.TraceStats)

	// (1) Driver conservation: NMIs = logged + dropped.
	ds := r.Driver
	if ds.Logged+ds.Dropped != ds.NMIs {
		t.Errorf("driver conservation: logged %d + dropped %d != NMIs %d",
			ds.Logged, ds.Dropped, ds.NMIs)
	}

	// (2) Daemon conservation: logged = aggregated + still buffered.
	buffered := uint64(r.Session.Prof.Driver.BufferLen())
	if r.Daemon.SamplesLogged()+buffered != ds.Logged {
		t.Errorf("daemon conservation: aggregated %d + buffered %d != logged %d",
			r.Daemon.SamplesLogged(), buffered, ds.Logged)
	}

	// (3) Disk conservation across crashes and recovery: what the
	// salvage reader recovers from the sample file (spill merges
	// included), plus committed spill still parked on disk, plus the
	// daemon's accounted losses, equals what the daemon aggregated. The
	// parked total comes from the offline spill state, not the daemon's
	// in-memory counter, because recovery moves parked samples into the
	// sample file after the daemon last saw them.
	disk := r.Machine.Kern.Disk()
	var persisted uint64
	persistedCPU := make(map[int]uint64)
	if data, err := disk.Read(oprofile.SampleFile); err == nil {
		counts, _, err := oprofile.ReadCountsSalvage(data)
		if err != nil {
			t.Fatalf("salvage re-read: %v", err)
		}
		for k, c := range counts {
			persisted += c
			persistedCPU[k.CPU] += c
		}
	}
	spillSt := oprofile.ReadSpillState(disk)
	accounted := persisted + spillSt.OnDiskTotal + r.Daemon.Unflushed() + r.Daemon.SpilledLost()
	if accounted != r.Daemon.SamplesLogged() {
		t.Errorf("disk conservation: persisted %d + parked %d + unflushed %d + spill-lost %d = %d != aggregated %d",
			persisted, spillSt.OnDiskTotal, r.Daemon.Unflushed(), r.Daemon.SpilledLost(),
			accounted, r.Daemon.SamplesLogged())
	}

	// (1b-3b) Per-CPU conservation: the shard split must account exactly
	// at every stage and sum back to the aggregates. The disk equation
	// closes per CPU unconditionally: parked spill frames carry the CPU
	// in every key, and the daemon attributes hard-cap losses per CPU,
	// so spill activity no longer weakens the equality to aggregate-only.
	// Persisted counts can never exceed a CPU's aggregated total — that
	// would be cross-CPU misattribution.
	drv := r.Session.Prof.Driver
	loggedCPU := r.Daemon.SamplesLoggedCPU()
	aggCPU := func(ci int) uint64 {
		if ci < len(loggedCPU) {
			return loggedCPU[ci]
		}
		return 0
	}
	unflushedCPU := r.Daemon.UnflushedCPU()
	parkedCPU := make(map[int]uint64)
	for k, c := range spillSt.OnDisk {
		parkedCPU[k.CPU] += c
	}
	lostCPU := r.Daemon.SpilledLostCPU()
	var sumNMI, sumLogged, sumDropped, sumAgg uint64
	for ci := 0; ci < drv.NumCPU(); ci++ {
		cs := drv.StatsCPU(ci)
		sumNMI += cs.NMIs
		sumLogged += cs.Logged
		sumDropped += cs.Dropped
		sumAgg += aggCPU(ci)
		if cs.Logged+cs.Dropped != cs.NMIs {
			t.Errorf("cpu%d driver conservation: logged %d + dropped %d != NMIs %d",
				ci, cs.Logged, cs.Dropped, cs.NMIs)
		}
		if aggCPU(ci)+uint64(drv.ShardLen(ci)) != cs.Logged {
			t.Errorf("cpu%d daemon conservation: aggregated %d + buffered %d != logged %d",
				ci, aggCPU(ci), drv.ShardLen(ci), cs.Logged)
		}
		if persistedCPU[ci] > aggCPU(ci) {
			t.Errorf("cpu%d misattribution: persisted %d exceeds aggregated %d",
				ci, persistedCPU[ci], aggCPU(ci))
		}
		if persistedCPU[ci]+parkedCPU[ci]+unflushedCPU[ci]+lostCPU[ci] != aggCPU(ci) {
			t.Errorf("cpu%d disk conservation: persisted %d + parked %d + unflushed %d + spill-lost %d != aggregated %d",
				ci, persistedCPU[ci], parkedCPU[ci], unflushedCPU[ci], lostCPU[ci], aggCPU(ci))
		}
	}
	if sumNMI != ds.NMIs || sumLogged != ds.Logged || sumDropped != ds.Dropped {
		t.Errorf("per-CPU driver stats (NMIs %d, logged %d, dropped %d) do not sum to aggregate (%d, %d, %d)",
			sumNMI, sumLogged, sumDropped, ds.NMIs, ds.Logged, ds.Dropped)
	}
	if sumAgg != r.Daemon.SamplesLogged() {
		t.Errorf("per-CPU aggregation %d does not sum to SamplesLogged %d",
			sumAgg, r.Daemon.SamplesLogged())
	}
	for ci := range persistedCPU {
		if ci < 0 || ci >= drv.NumCPU() {
			t.Errorf("persisted samples attributed to nonexistent cpu%d", ci)
		}
	}

	// Report totals can never exceed what the driver logged, and the
	// report's per-CPU breakdown must sum back to its totals.
	for _, ev := range r.Report.Events {
		if r.Report.Totals[ev] > ds.Logged {
			t.Errorf("report total %d for event %v exceeds logged %d",
				r.Report.Totals[ev], ev, ds.Logged)
		}
		var cpuSum uint64
		for _, ct := range r.Report.PerCPU {
			cpuSum += ct.Counts[ev]
		}
		if cpuSum != r.Report.Totals[ev] {
			t.Errorf("report per-CPU breakdown for %v sums to %d, total is %d",
				ev, cpuSum, r.Report.Totals[ev])
		}
	}

	// (4) No silent misattribution: every JIT sample the durable
	// resolver attributes must agree with the agent's in-memory oracle.
	checkNoMisattribution(t, r)

	// (5) Visibility: destructive faults are never invisible —
	// including rename faults (counted destructive) and consequential
	// directory damage — and a run with no faults at all is never
	// falsely degraded.
	integ := r.Report.Integrity
	if integ == nil {
		t.Fatal("report has no Integrity section")
	}
	mustDegrade := r.Faults.Destructive() > 0
	reason := fmt.Sprintf("%d destructive faults", r.Faults.Destructive())
	if r.ListFaults.Phantoms > 0 {
		// A phantom dirent is always consequential: either it invents an
		// orphan (recovery records the failure) or it shadows a real
		// orphan (which itself implies damage).
		mustDegrade = true
		reason += fmt.Sprintf(", %d phantom dirents", r.ListFaults.Phantoms)
	}
	// A dropped dirent is consequential when the report phase lost a
	// final map file: the journal cross-check must have poisoned it.
	for _, p := range r.ListFaults.DroppedPaths[len(r.ListFaultsRecovery.DroppedPaths):] {
		if isFinalMapPath(p) {
			mustDegrade = true
			reason += fmt.Sprintf(", report-phase dropped dirent %s", p)
			break
		}
	}
	// Every offline-read EIO strikes an artifact the Integrity section
	// accounts for: a recovery-phase read failure becomes a recorded
	// decision (failed orphan, damaged journal) and a report-phase one
	// becomes a missing/unreadable artifact.
	if r.ReadFaults.EIO > 0 {
		mustDegrade = true
		reason += fmt.Sprintf(", %d read faults", r.ReadFaults.EIO)
	}
	if mustDegrade && !integ.Degraded() {
		var buf bytes.Buffer
		_ = oprofile.FormatIntegrity(&buf, integ)
		t.Errorf("%s injected but Integrity reads clean:\n%s", reason, buf.String())
	}
	if r.Faults.Destructive() == 0 && r.ListFaults.Dropped == 0 && r.ListFaults.Phantoms == 0 &&
		r.ReadFaults.EIO == 0 && integ.Degraded() {
		var buf bytes.Buffer
		_ = oprofile.FormatIntegrity(&buf, integ)
		t.Errorf("no destructive or listing faults but Integrity reads degraded:\n%s", buf.String())
	}

	// (3c) Spill-loss accounting agrees with itself: the persisted
	// per-event split, the report's per-event rows and (on multi-core
	// runs) the persisted per-CPU split each sum to the daemon's
	// persisted hard-cap loss.
	if st := integ.Stats; st != nil {
		var byEvent, rows, byCPU uint64
		for _, n := range st.SpilledLostByEvent {
			byEvent += n
		}
		for _, si := range integ.Spill {
			rows += si.Lost
		}
		for _, n := range st.PerCPU["spilled_lost"] {
			byCPU += n
		}
		if byEvent != st.SpilledLost || rows != st.SpilledLost {
			t.Errorf("spill loss: per-event %d, report rows %d, persisted total %d",
				byEvent, rows, st.SpilledLost)
		}
		if r.Cores > 1 && byCPU != st.SpilledLost {
			t.Errorf("spill loss: per-CPU %d != persisted total %d", byCPU, st.SpilledLost)
		}
	}

	// (5b) Every recovery decision is visible: the pass's in-memory
	// outcome must round-trip through the persisted stats record into
	// the report's Integrity section.
	if r.Recovery != nil {
		switch {
		case integ.Recovery != nil:
			if !reflect.DeepEqual(integ.Recovery, r.Recovery) {
				t.Errorf("recovery record mismatch:\n  ran:      %+v\n  reported: %+v",
					r.Recovery, integ.Recovery)
			}
		case r.ReadFaults.EIO > 0 && integ.RecoveryIncomplete:
			// An injected EIO ate the report's read of the stats record;
			// the report flagged the gap loudly instead of inventing one.
		default:
			t.Errorf("recovery ran (%+v) but Integrity carries no recovery record", r.Recovery)
		}
	}
}

// isFinalMapPath reports whether p is a committed epoch map file
// ("…/map.<digits>"), the artifact whose silent disappearance from a
// listing would misattribute samples.
func isFinalMapPath(p string) bool {
	i := strings.LastIndexByte(p, '/')
	num, found := strings.CutPrefix(p[i+1:], "map.")
	if !found || num == "" {
		return false
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// checkNoMisattribution re-reads the sample file from disk and checks
// every JIT key the durable resolver can attribute against the agent's
// oracle chain — the fault-free persistence reference for this very
// execution.
func checkNoMisattribution(t *testing.T, r *harness.ChaosResult) {
	t.Helper()
	disk := r.Machine.Kern.Disk()
	data, err := disk.Read(oprofile.SampleFile)
	if err != nil {
		return // nothing persisted, nothing to misattribute
	}
	counts, _, err := oprofile.ReadCountsSalvage(data)
	if err != nil {
		t.Fatalf("salvage re-read: %v", err)
	}
	chain, ok := r.Resolver.Chains[r.Proc.PID]
	if !ok {
		t.Fatal("resolver has no chain for the VM pid")
	}
	oracle := r.Agent.OracleChain()
	var attributed, unresolved int
	for k := range counts {
		if !k.JIT || k.Proc != r.Proc.Name {
			continue
		}
		entry, _, found := chain.ResolveDurable(k.Epoch, k.Off)
		if !found {
			unresolved++
			continue
		}
		attributed++
		oEntry, _, oFound := oracle.Resolve(k.Epoch, k.Off)
		if !oFound {
			t.Errorf("misattribution: epoch %d pc %v resolved to %q on disk but the oracle has no entry",
				k.Epoch, k.Off, entry.Sig)
			continue
		}
		if oEntry.Sig != entry.Sig {
			t.Errorf("misattribution: epoch %d pc %v resolved to %q on disk, oracle says %q",
				k.Epoch, k.Off, entry.Sig, oEntry.Sig)
		}
	}
	t.Logf("JIT keys: %d attributed, %d unresolved (degraded, not lied about)",
		attributed, unresolved)
}

// A scripted daemon crash: the second sample-file write kills the
// daemon. The stats file must be absent, the report degraded, and
// conservation must still hold.
func TestChaosScriptedDaemonCrash(t *testing.T) {
	r := runScriptedChaos(t, kernel.FaultPlan{
		Seed:       99,
		PathPrefix: oprofile.SampleFile,
		Script:     []kernel.FaultPoint{{Write: 1, Kind: kernel.FaultCrash}},
	})
	if !r.Daemon.Crashed() {
		t.Fatal("daemon survived a scripted crash point")
	}
	if r.Machine.Kern.Disk().Exists(oprofile.DaemonStatsFile) {
		t.Error("crashed daemon left a stats file")
	}
	if !r.Report.Integrity.Degraded() {
		t.Error("daemon crash not surfaced as degradation")
	}
	if r.Report.Integrity.Stats != nil {
		t.Error("integrity reports daemon stats despite the crash")
	}
	checkChaosInvariants(t, r)
}

// A scripted SMP shard crash: on a 4-core machine the daemon writes one
// framed record per CPU per flush, and the script kills it on the third
// sample-file record — so a strict subset of the per-CPU shards reached
// disk. The partial state must stay per-CPU accountable: persisted
// counts within each CPU's aggregated totals (no cross-CPU
// misattribution), the un-persisted remainder visible as unflushed, and
// the crash loud in the Integrity section.
func TestChaosScriptedShardCrash(t *testing.T) {
	sched := harness.ChaosSchedule{
		Seed:  321,
		Cores: 4,
		Plans: []kernel.FaultPlan{{
			Seed:       321,
			PathPrefix: oprofile.SampleFile,
			Script:     []kernel.FaultPoint{{Write: 2, Kind: kernel.FaultCrash}},
		}},
	}
	r, err := harness.RunChaosSchedule(321, 0.25, sched)
	if err != nil {
		t.Fatalf("shard-crash run: %v", err)
	}
	if r.Cores != 4 {
		t.Fatalf("machine has %d cores, want 4", r.Cores)
	}
	if r.Faults.Crashes != 1 {
		t.Fatalf("scripted crash did not fire: %+v", r.Faults)
	}
	if !r.Daemon.Crashed() {
		t.Fatal("daemon survived a scripted crash point")
	}
	if r.Machine.Kern.Disk().Exists(oprofile.DaemonStatsFile) {
		t.Error("crashed daemon left a stats file")
	}
	if !r.Report.Integrity.Degraded() {
		t.Error("partial shard flush not surfaced as degradation")
	}
	// Two records committed before the crash, so at least one shard's
	// data persisted; the torn record's group and everything after it
	// stayed dirty, so the loss is visible as unflushed.
	data, err := r.Machine.Kern.Disk().Read(oprofile.SampleFile)
	if err != nil {
		t.Fatalf("sample file unreadable after partial flush: %v", err)
	}
	counts, _, err := oprofile.ReadCountsSalvage(data)
	if err != nil {
		t.Fatalf("salvage re-read: %v", err)
	}
	persistedCPU := make(map[int]uint64)
	for k, c := range counts {
		persistedCPU[k.CPU] += c
	}
	if len(persistedCPU) == 0 {
		t.Error("no shard persisted despite two committed records")
	}
	if r.Daemon.Unflushed() == 0 {
		t.Error("mid-flush crash left nothing unflushed — the subset state never happened")
	}
	loggedCPU := r.Daemon.SamplesLoggedCPU()
	for ci, c := range persistedCPU {
		var agg uint64
		if ci >= 0 && ci < len(loggedCPU) {
			agg = loggedCPU[ci]
		}
		if c > agg {
			t.Errorf("cpu%d misattribution after partial flush: persisted %d > aggregated %d", ci, c, agg)
		}
	}
	t.Logf("persisted per CPU: %v; unflushed %d", persistedCPU, r.Daemon.Unflushed())
	checkChaosInvariants(t, r)
}

// A latency-only schedule must not degrade anything: the writes all
// complete, just slowly.
func TestChaosLatencyOnlyIsClean(t *testing.T) {
	r := runScriptedChaos(t, kernel.FaultPlan{
		Seed:       7,
		PathPrefix: "var/",
		Script: []kernel.FaultPoint{
			{Write: 0, Kind: kernel.FaultLatency},
			{Write: 2, Kind: kernel.FaultLatency},
		},
	})
	if r.Faults.Latency == 0 {
		t.Fatal("latency schedule injected nothing")
	}
	if r.Faults.Destructive() != 0 {
		t.Fatalf("latency-only plan injected destructive faults: %+v", r.Faults)
	}
	if r.Report.Integrity.Degraded() {
		var buf bytes.Buffer
		_ = oprofile.FormatIntegrity(&buf, r.Report.Integrity)
		t.Errorf("latency-only run reads degraded:\n%s", buf.String())
	}
	checkChaosInvariants(t, r)
}

// Read-fault chaos: the session itself runs fault-free, then the
// offline report assembly reads the disk through a seeded EIO schedule
// (internal/harness.RunChaosRead). The salvage readers' contract is the
// mirror image of the write side's:
//
//   - an unreadable sample file reads as MISSING, never as empty-and-OK;
//   - an unreadable stats file reads as an unclean shutdown;
//   - an unreadable epoch map poisons the chain at its epoch, so the
//     durable resolver refuses attributions the lost entries could have
//     shadowed — degrade loudly, never misattribute;
//   - zero injected read faults must leave the report exactly clean.
func TestChaosReadFaultSweep(t *testing.T) {
	const readSeeds = 15
	for seed := int64(100); seed < 100+readSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r, err := harness.RunChaosRead(seed, 0.25)
			if err != nil {
				t.Fatalf("read-chaos run: %v", err)
			}
			t.Logf("readFaults=%+v", r.ReadFaults)
			if r.Faults.Destructive() > 0 {
				t.Fatalf("read-chaos run injected write faults: %+v", r.Faults)
			}
			// The durable resolver must never contradict the oracle, no
			// matter which artifacts the read schedule destroyed.
			checkNoMisattribution(t, r)
			integ := r.Report.Integrity
			if integ == nil {
				t.Fatal("report has no Integrity section")
			}
			if r.ReadFaults.EIO > 0 && !integ.Degraded() {
				var buf bytes.Buffer
				_ = oprofile.FormatIntegrity(&buf, integ)
				t.Errorf("%d read faults injected but Integrity reads clean:\n%s",
					r.ReadFaults.EIO, buf.String())
			}
			if r.ReadFaults.EIO == 0 && integ.Degraded() {
				var buf bytes.Buffer
				_ = oprofile.FormatIntegrity(&buf, integ)
				t.Errorf("no read faults but Integrity reads degraded:\n%s", buf.String())
			}
		})
	}
}

// A scripted EIO on the very first epoch-map read: the chain must count
// the file as unreadable and poison its epoch, and the report must read
// degraded.
func TestChaosReadFaultUnreadableMap(t *testing.T) {
	r, err := harness.RunChaosReadPlan(11, 0.25, kernel.ReadFaultPlan{
		Seed:       11,
		PathPrefix: core.MapDir,
		Script:     []int{0},
	})
	if err != nil {
		t.Fatalf("read-chaos run: %v", err)
	}
	if r.ReadFaults.EIO != 1 {
		t.Fatalf("scripted map-read fault did not fire: %+v", r.ReadFaults)
	}
	integ := r.Report.Integrity
	if len(integ.Maps) == 0 || integ.Maps[0].UnreadableFiles != 1 {
		t.Fatalf("unreadable map file not accounted: %+v", integ.Maps)
	}
	if !integ.Maps[0].Degraded() || !integ.Degraded() {
		t.Error("unreadable map file not surfaced as degradation")
	}
	checkNoMisattribution(t, r)
}

// A scripted EIO on the sample-file read: the report must degrade to
// "sample file MISSING" (loud), not to an empty-but-clean report.
func TestChaosReadFaultSampleFile(t *testing.T) {
	r, err := harness.RunChaosReadPlan(12, 0.25, kernel.ReadFaultPlan{
		Seed:       12,
		PathPrefix: oprofile.SampleFile,
		Script:     []int{0},
	})
	if err != nil {
		t.Fatalf("read-chaos run: %v", err)
	}
	if r.ReadFaults.EIO != 1 {
		t.Fatalf("scripted sample-read fault did not fire: %+v", r.ReadFaults)
	}
	integ := r.Report.Integrity
	if !integ.SampleFileMissing {
		t.Error("unreadable sample file not reported as missing")
	}
	if !integ.Degraded() {
		t.Error("unreadable sample file not surfaced as degradation")
	}
	for _, ev := range r.Report.Events {
		if r.Report.Totals[ev] != 0 {
			t.Errorf("report counts samples (%d for %v) despite unreadable sample file",
				r.Report.Totals[ev], ev)
		}
	}
}

// Two identical fault-free runs must persist byte-identical epoch code
// maps. This pins the writeMap ordering fix: the agent's moved-body set
// is a Go map, and emitting it in iteration order would leak runtime
// map randomization into the persisted bytes (and into which entries a
// torn write destroys).
func TestChaosMapBytesDeterministic(t *testing.T) {
	read := func() map[string]string {
		r, err := harness.RunChaosPlan(3, 0.25, kernel.FaultPlan{Seed: 3})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		disk := r.Machine.Kern.Disk()
		files := make(map[string]string)
		for _, name := range disk.List() {
			if !strings.HasPrefix(name, core.MapDir) {
				continue
			}
			data, err := disk.Read(name)
			if err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			files[name] = string(data)
		}
		if len(files) == 0 {
			t.Fatal("run persisted no map files")
		}
		return files
	}
	a, b := read(), read()
	if len(a) != len(b) {
		t.Fatalf("runs persisted different file sets: %d vs %d", len(a), len(b))
	}
	for name, data := range a {
		if b[name] != data {
			t.Errorf("map file %s differs between identical runs", name)
		}
	}
}

// TestChaosJournalReadFault pins the nightly seeds whose daemon-journal
// read EIO the recovery pass once mishandled, each replayed with the
// EIO scripted onto the journal reads (0 = the recovery pass's, 1 = the
// next one) so the cases survive read-schedule shifts:
//
//   - seed 282 (read-fault): an EIO on a journal read must surface in
//     Integrity, never leave it reading clean;
//   - seed 485 (read-fault+torn-samples): with a spill file parked, an
//     unreadable journal cannot tell committed frames from uncommitted
//     ones, so recovery must leave the spill file and count a merge
//     error instead of discarding committed samples.
func TestChaosJournalReadFault(t *testing.T) {
	for _, tc := range []struct {
		seed   int64
		script []int
	}{
		{282, []int{0}},
		{282, []int{1}},
		{485, []int{0, 1}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/script=%v", tc.seed, tc.script), func(t *testing.T) {
			t.Parallel()
			sched := harness.ScheduleOf(tc.seed)
			sched.ReadPlan = &kernel.ReadFaultPlan{
				Seed:       tc.seed,
				PathPrefix: oprofile.DaemonJournalFile,
				Script:     tc.script,
			}
			r, err := harness.RunChaosSchedule(tc.seed, 0.25, sched)
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			if r.ReadFaults.EIO != uint64(len(tc.script)) {
				t.Fatalf("scripted journal faults did not all fire: %+v", r.ReadFaults)
			}
			checkChaosInvariants(t, r)
			if tc.script[0] == 0 && r.Recovery.JournalsDamaged != 1 {
				t.Errorf("unreadable journal not counted by recovery: %+v", r.Recovery)
			}
			if tc.seed == 485 {
				if !r.Machine.Kern.Disk().Exists(oprofile.SpillFile) || r.Recovery.SpillMergeErrors == 0 {
					t.Errorf("spill file not left in place under an unreadable journal: %+v", r.Recovery)
				}
			}
		})
	}
}

// runScriptedChaos is RunChaos with a caller-supplied plan instead of a
// seed-derived one (the plan's seed also drives workload noise).
func runScriptedChaos(t *testing.T, plan kernel.FaultPlan) *harness.ChaosResult {
	t.Helper()
	r, err := harness.RunChaosPlan(plan.Seed, 0.25, plan)
	if err != nil {
		t.Fatalf("scripted chaos run: %v", err)
	}
	return r
}

// A scripted rename-before fault on the very first map commit: the
// destination never appears, the orphan temp survives, and the
// recovery pass must adopt it (complete payload, no final file) —
// after which the report sees no orphan, but the run is still loudly
// degraded (the agent recorded the failed commit, and recovery
// recorded the adoption).
func TestChaosScriptedRenameBeforeAdopted(t *testing.T) {
	r := runScriptedChaos(t, kernel.FaultPlan{
		Seed:         44,
		PathPrefix:   core.MapDir,
		RenameScript: []kernel.FaultPoint{{Write: 0, Kind: kernel.FaultRenameBefore}},
	})
	if r.Faults.RenameBefores != 1 {
		t.Fatalf("scripted rename-before did not fire: %+v", r.Faults)
	}
	if r.Recovery == nil || r.Recovery.Adopted != 1 {
		t.Fatalf("recovery did not adopt the orphan temp: %+v", r.Recovery)
	}
	integ := r.Report.Integrity
	if len(integ.Maps) == 0 {
		t.Fatal("no map integrity section")
	}
	if integ.Maps[0].OrphanTmp != 0 {
		t.Errorf("adopted orphan still reported as orphan: %+v", integ.Maps[0])
	}
	if integ.Maps[0].MapWriteErrors == 0 {
		t.Error("agent did not record the failed commit")
	}
	if !integ.Degraded() {
		t.Error("rename fault not surfaced as degradation")
	}
	checkChaosInvariants(t, r)
}

// A scripted rename-after fault: the commit is durable although the
// agent saw an error. Recovery finds no orphan (the rename applied);
// the run is degraded only through the agent's own accounting.
func TestChaosScriptedRenameAfter(t *testing.T) {
	r := runScriptedChaos(t, kernel.FaultPlan{
		Seed:         45,
		PathPrefix:   core.MapDir,
		RenameScript: []kernel.FaultPoint{{Write: 0, Kind: kernel.FaultRenameAfter}},
	})
	if r.Faults.RenameAfters != 1 {
		t.Fatalf("scripted rename-after did not fire: %+v", r.Faults)
	}
	if r.Recovery.Adopted != 0 || r.Recovery.Quarantined != 0 {
		t.Fatalf("rename-after left recovery work: %+v", r.Recovery)
	}
	integ := r.Report.Integrity
	if len(integ.Maps) == 0 || integ.Maps[0].MapWriteErrors == 0 {
		t.Error("ambiguous commit not recorded by the agent")
	}
	if !integ.Degraded() {
		t.Error("rename-after fault not surfaced as degradation")
	}
	checkChaosInvariants(t, r)
}

// A dropped dirent that hides a committed final map file during report
// assembly: the commit-journal cross-check must count the missing
// epoch, poison it, and degrade the report — misattribution by
// omission made loud.
func TestChaosDirDamageDropHidesCommittedMap(t *testing.T) {
	r, err := harness.RunChaosPlan(46, 0.25, kernel.FaultPlan{Seed: 46})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	disk := r.Machine.Kern.Disk()
	prefix := fmt.Sprintf("%s/%d/", core.MapDir, r.Proc.PID)
	target := prefix + "map.0"
	idx, matched := -1, 0
	for _, name := range disk.List() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if name == target {
			idx = matched
		}
		matched++
	}
	if idx < 0 {
		t.Fatalf("fault-free run left no %s", target)
	}
	disk.SetListFaultInjector(kernel.ListFaultPlan{
		Seed: 1, PathPrefix: prefix, DropScript: []int{idx},
	})
	rep, _, err := r.Session.Report(r.Session.Images(r.VM), map[string]int{r.Proc.Name: r.Proc.PID})
	disk.ClearListFaultInjector()
	if err != nil {
		t.Fatalf("report under listing damage: %v", err)
	}
	integ := rep.Integrity
	if len(integ.Maps) == 0 || integ.Maps[0].MissingCommitted != 1 {
		t.Fatalf("hidden committed map not counted: %+v", integ.Maps)
	}
	if !integ.Maps[0].Degraded() || !integ.Degraded() {
		t.Error("hidden committed map not surfaced as degradation")
	}
}

// A phantom dirent during report assembly reads as an orphan temp; the
// same phantom during the recovery pass reads as a failed salvage.
// Either way the damage is loud.
func TestChaosDirDamagePhantom(t *testing.T) {
	r, err := harness.RunChaosPlan(47, 0.25, kernel.FaultPlan{Seed: 47})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	disk := r.Machine.Kern.Disk()
	prefix := fmt.Sprintf("%s/%d/", core.MapDir, r.Proc.PID)

	// Report phase: the phantom shows up as an orphan temp.
	disk.SetListFaultInjector(kernel.ListFaultPlan{
		Seed: 1, PathPrefix: prefix, PhantomScript: []int{0},
	})
	rep, _, err := r.Session.Report(r.Session.Images(r.VM), map[string]int{r.Proc.Name: r.Proc.PID})
	disk.ClearListFaultInjector()
	if err != nil {
		t.Fatalf("report under phantom damage: %v", err)
	}
	if len(rep.Integrity.Maps) == 0 || rep.Integrity.Maps[0].OrphanTmp != 1 {
		t.Fatalf("phantom dirent not read as orphan temp: %+v", rep.Integrity.Maps)
	}
	if !rep.Integrity.Degraded() {
		t.Error("phantom dirent not surfaced as degradation")
	}

	// Recovery phase: the phantom cannot be read back, so the pass
	// records a failed salvage — visible in the next report.
	disk.SetListFaultInjector(kernel.ListFaultPlan{
		Seed: 2, PathPrefix: prefix, PhantomScript: []int{0},
	})
	rec, recErr := core.RunRecovery(r.Machine, []int{r.Proc.PID})
	disk.ClearListFaultInjector()
	if recErr != nil {
		t.Fatalf("recovery under phantom damage: %v", recErr)
	}
	if rec.Failed != 1 {
		t.Fatalf("phantom not recorded as failed salvage: %+v", rec)
	}
	rep2, _, err := r.Session.Report(r.Session.Images(r.VM), map[string]int{r.Proc.Name: r.Proc.PID})
	if err != nil {
		t.Fatalf("report after phantom recovery: %v", err)
	}
	if rep2.Integrity.Recovery == nil || rep2.Integrity.Recovery.Failed != 1 {
		t.Fatalf("recovery decision not visible in the report: %+v", rep2.Integrity.Recovery)
	}
	if !rep2.Integrity.Degraded() {
		t.Error("failed recovery salvage not surfaced as degradation")
	}
}
