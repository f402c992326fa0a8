package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// buildStore runs a small fleet (with real network dups so the
// journals hold duplicate-absorption evidence, and a scripted shard
// crash so they hold a restart marker and torn-append salvage) and
// returns the machine whose disk is the store under test.
func buildStore(t *testing.T, seed int64, hosts, deltas int, crash bool) *kernel.Machine {
	t.Helper()
	m := newTestMachine(seed)
	if crash {
		m.Kern.SetFaultInjectors(kernel.FaultPlan{
			Seed:       seed,
			PathPrefix: JournalPrefix,
			Script:     []kernel.FaultPoint{{Write: 4, Kind: kernel.FaultCrash}},
		})
	}
	res, err := RunFleet(m, FleetConfig{
		Hosts: hosts, DeltasPerHost: deltas, Seed: seed,
		Net: NetFaultPlan{Seed: seed + 1, PDup: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	return m
}

// sumCounts folds a windowed query result to a total.
func sumCounts(counts map[oprofile.Key]uint64) (n uint64) {
	for _, c := range counts {
		n += c
	}
	return n
}

// windowOracle is the brute-force reference: a full scan of every
// applied record, filtered by generation time — what QueryWindow must
// equal no matter how the store is laid out on disk.
func windowOracle(agg *Aggregate, from, to uint64) map[oprofile.Key]uint64 {
	oracle := make(map[oprofile.Key]uint64)
	for _, h := range agg.Hosts() {
		for _, rec := range agg.Records(h) {
			if rec.Kind != KindDelta || rec.At < from || rec.At >= to {
				continue
			}
			for k, c := range rec.Counts {
				oracle[k] += c
			}
		}
	}
	return oracle
}

func sameCounts(a, b map[oprofile.Key]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

// TestWindowedQueryOracle is the compaction quickcheck: for random
// windows, a windowed query over the compacted generations must equal
// the same filter run as a full scan over the pre-compaction store —
// compaction changes layout, never meaning. The two halves of any cut
// must also partition the whole.
func TestWindowedQueryOracle(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		m := buildStore(t, seed, 3, 7, seed == 202)
		disk := m.Kern.Disk()
		before, _, err := LoadStore(disk, 0)
		if err != nil {
			t.Fatalf("seed %d: pre-compaction load: %v", seed, err)
		}
		min, max, ok := before.TimeBounds()
		if !ok || max <= min {
			t.Fatalf("seed %d: no time spread: %d..%d", seed, min, max)
		}
		res, err := CompactDisk(disk)
		if err != nil {
			t.Fatalf("seed %d: compaction: %v", seed, err)
		}
		if !res.Committed || res.Gen != 1 || res.PrunedJournals == 0 {
			t.Fatalf("seed %d: compaction did not commit+prune: %+v", seed, res)
		}
		after, rep, err := LoadStore(disk, 0)
		if err != nil {
			t.Fatalf("seed %d: post-compaction load: %v", seed, err)
		}
		if rep.ManifestGen != 1 || rep.Journals != 0 {
			t.Fatalf("seed %d: store not compacted: %+v", seed, rep)
		}
		if after.Total() != before.Total() {
			t.Fatalf("seed %d: compaction changed the total: %d -> %d",
				seed, before.Total(), after.Total())
		}
		rng := rand.New(rand.NewSource(seed))
		span := max - min
		for i := 0; i < 40; i++ {
			from := min + uint64(rng.Int63n(int64(span)))
			to := from + 1 + uint64(rng.Int63n(int64(span)))
			got := after.QueryWindow(from, to)
			want := windowOracle(before, from, to)
			if !sameCounts(got, want) {
				t.Fatalf("seed %d window [%d,%d): query %d samples, oracle %d",
					seed, from, to, sumCounts(got), sumCounts(want))
			}
			cut := min + uint64(rng.Int63n(int64(span)))
			lo := sumCounts(after.QueryWindow(0, cut))
			hi := sumCounts(after.QueryWindow(cut, ^uint64(0)))
			if lo+hi != after.Total() {
				t.Fatalf("seed %d cut %d: %d + %d != %d", seed, cut, lo, hi, after.Total())
			}
		}
	}
}

// failingIO wraps a compactIO and fails cleanly at the k-th mutation,
// counting operations — the sweep driver for every fault point a
// compaction pass has.
type failingIO struct {
	inner   compactIO
	failAt  int // 0 = never
	ops     int
	injects int
}

var errInjected = errors.New("injected compaction fault")

func (f *failingIO) step() error {
	f.ops++
	if f.failAt > 0 && f.ops >= f.failAt {
		f.injects++
		return errInjected
	}
	return nil
}

func (f *failingIO) WriteSync(path string, data []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.WriteSync(path, data)
}

func (f *failingIO) Rename(oldPath, newPath string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *failingIO) Remove(path string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// TestCompactionFaultPointSweep kills a compaction pass at every
// single mutation point in turn and proves the store stays readable
// and semantically identical at each one — and that a clean retry
// afterwards still commits. This is the crash-safety argument of the
// manifest commit protocol, exhaustively checked rather than sampled.
func TestCompactionFaultPointSweep(t *testing.T) {
	// 4 hosts x 30 deltas (plus map epochs and a restart marker) spills
	// past one generation file's 96-frame budget, so the sweep covers
	// the multi-chunk write path too.
	m := buildStore(t, 404, 4, 30, true)
	dir := t.TempDir()
	if err := m.Kern.Disk().DumpTo(dir); err != nil {
		t.Fatal(err)
	}
	oracle, orep, err := LoadStore(m.Kern.Disk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if orep.Markers == 0 {
		t.Fatal("store has no restart markers — the sweep would not cover marker re-encoding")
	}

	// Count the pass's total mutations on a throwaway copy.
	probeDisk, err := kernel.LoadDiskFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	probe := &failingIO{inner: &diskCompactIO{d: probeDisk}}
	if _, err := compactPass(probeDisk, probe); err != nil {
		t.Fatalf("clean probe pass failed: %v", err)
	}
	total := probe.ops
	// 2+ gen files (write+rename each), the manifest commit pair, and
	// at least one journal prune.
	if total < 7 {
		t.Fatalf("suspiciously small pass: %d mutations", total)
	}

	for k := 1; k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("fault-at-%d", k), func(t *testing.T) {
			disk, err := kernel.LoadDiskFrom(dir)
			if err != nil {
				t.Fatal(err)
			}
			fio := &failingIO{inner: &diskCompactIO{d: disk}, failAt: k}
			res, err := compactPass(disk, fio)
			if fio.injects == 0 {
				t.Fatalf("fault point %d never reached", k)
			}
			if err == nil {
				t.Fatalf("interrupted pass reported no error: %+v", res)
			}
			// The store must still load, losslessly, at this fault point.
			agg, rep, lerr := LoadStore(disk, 0)
			if lerr != nil {
				t.Fatalf("store unreadable after fault at %d: %v", k, lerr)
			}
			if rep.ManifestDamaged {
				t.Fatalf("manifest damaged after fault at %d", k)
			}
			if !sameCounts(agg.Counts(), oracle.Counts()) {
				t.Fatalf("fault at %d changed the store: %d samples vs oracle %d",
					k, agg.Total(), oracle.Total())
			}
			if res.Committed && rep.ManifestGen != res.Gen {
				t.Fatalf("committed gen %d but store reads gen %d", res.Gen, rep.ManifestGen)
			}
			// A clean retry must finish the job from any fault point.
			if _, rerr := CompactDisk(disk); rerr != nil {
				t.Fatalf("retry after fault at %d failed: %v", k, rerr)
			}
			agg2, rep2, lerr := LoadStore(disk, 0)
			if lerr != nil {
				t.Fatalf("store unreadable after retry at %d: %v", k, lerr)
			}
			if rep2.Journals != 0 || rep2.ManifestGen == 0 {
				t.Fatalf("retry at %d left the store uncompacted: %+v", k, rep2)
			}
			if !sameCounts(agg2.Counts(), oracle.Counts()) {
				t.Fatalf("retry at %d changed the store: %d vs %d",
					k, agg2.Total(), oracle.Total())
			}
			if rep2.Markers != orep.Markers {
				t.Fatalf("retry at %d lost restart markers: %d vs %d",
					k, rep2.Markers, orep.Markers)
			}
		})
	}
}

// TestFleetMapReplication runs a hostile-but-nondestructive network
// (dups + reorders) and checks the code-map replication contract: all
// maps acked, every replicated epoch byte-identical to what the
// sender published, and the live compactor preserving them across a
// committed generation.
func TestFleetMapReplication(t *testing.T) {
	m := newTestMachine(55)
	cfg := FleetConfig{
		Hosts: 4, DeltasPerHost: 6, Seed: 55,
		Net: NetFaultPlan{Seed: 56, PDup: 0.25, PReorder: 0.25},
	}
	cfg.Collector.CompactEveryCycles = 250_000
	res, err := RunFleet(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	var gen, acked uint64
	for _, s := range res.Senders {
		st := s.Stats()
		gen += st.MapsGenerated
		acked += st.MapsAcked
	}
	if gen == 0 || acked != gen {
		t.Fatalf("maps not fully acked: %d/%d", acked, gen)
	}
	for name, agg := range map[string]*Aggregate{
		"live": res.Collector.Aggregate(), "replayed": res.Replayed,
	} {
		if bad := CheckMapReplication(res.Senders, agg); len(bad) > 0 {
			t.Fatalf("%s replication violated:\n%v", name, bad)
		}
		for _, s := range res.Senders {
			if got := agg.MapEpochs(s.cfg.Host); got == 0 {
				t.Fatalf("%s: host %d has no replicated epochs", name, s.cfg.Host)
			}
		}
	}
	if res.Collector.Stats().Compactions == 0 {
		t.Fatal("compactor never committed — the maps-across-compaction leg did not run")
	}
	if res.Replay.ManifestGen == 0 {
		t.Fatalf("offline replay saw no generation: %+v", res.Replay)
	}
}

// TestStrayAuditUsesReplayedManifest: the generation-directory audit
// checks against the manifest the replay read. An EIO on any later
// read of MANIFEST must not turn the committed generation files into
// aborted-pass leftovers; and when the replay itself could not read
// the manifest, that damage is the report — no file is called stray.
func TestStrayAuditUsesReplayedManifest(t *testing.T) {
	m := buildStore(t, 505, 3, 6, false)
	disk := m.Kern.Disk()
	if res, err := CompactDisk(disk); err != nil || !res.Committed || res.Files == 0 {
		t.Fatalf("compaction: %+v, %v", res, err)
	}
	agg, rep, err := LoadStore(disk, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := agg.Hosts()
	if fi := AssembleIntegrity(disk, agg, rep, hosts, NetFaultStats{}); fi.StrayGenFiles != 0 || fi.Degraded() {
		t.Fatalf("clean compacted store: stray=%d degraded=%v\n%s", fi.StrayGenFiles, fi.Degraded(), FormatFleetIntegrity(fi))
	}

	eio := kernel.ReadFaultPlan{PathPrefix: ManifestPath, Script: []int{0}}
	disk.SetReadFaultInjector(eio)
	fi := AssembleIntegrity(disk, agg, rep, hosts, NetFaultStats{})
	disk.ClearReadFaultInjector()
	if fi.StrayGenFiles != 0 || fi.Degraded() {
		t.Errorf("manifest EIO after the replay: stray=%d degraded=%v\n%s", fi.StrayGenFiles, fi.Degraded(), FormatFleetIntegrity(fi))
	}

	disk.SetReadFaultInjector(eio)
	_, rep, err = LoadStore(disk, 0)
	disk.ClearReadFaultInjector()
	if err == nil || rep.Manifest != nil {
		t.Fatalf("manifest EIO during the replay: err=%v manifest=%v", err, rep.Manifest)
	}
	if fi := AssembleIntegrity(disk, agg, rep, hosts, NetFaultStats{}); fi.StrayGenFiles != 0 {
		t.Errorf("unreadable manifest: %d files called stray", fi.StrayGenFiles)
	}
}
