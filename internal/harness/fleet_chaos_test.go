package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"testing"

	"viprof/internal/fleet"
)

// The fleet conservation sweep: across composed network + disk chaos,
// every run must balance the fleet ledger — sum of per-host holds ==
// collector aggregate, key for key, with zero misattribution — and
// degradation must be exactly as loud as the injected destruction.

func checkFleetInvariants(t *testing.T, r *FleetChaosResult) {
	t.Helper()
	res := r.Result
	if res.RunErr != nil {
		t.Fatalf("machine run failed: %v", res.RunErr)
	}

	// Conservation and misattribution, against the live aggregate and
	// (when the journal was readable) the offline replay. CheckConservation
	// compares key for key, so a single sample double-counted by a
	// duplicate, lost by a reorder, or attributed to the wrong host's
	// proc fails here.
	aggs := map[string]*fleet.Aggregate{"live": res.Collector.Aggregate()}
	if res.Replayed != nil {
		aggs["replayed"] = res.Replayed
	} else if !res.Integrity.JournalUnreadable {
		t.Error("no replayed aggregate but journal not marked unreadable")
	}
	for name, agg := range aggs {
		c := fleet.CheckConservation(res.Senders, agg)
		if !c.Balanced() {
			t.Errorf("%s conservation violated:\n%v", name, c.Mismatches)
		}
		if c.GeneratedSamples == 0 {
			t.Error("run generated no samples")
		}
	}

	destructive := r.TotalDestructive()
	degraded := res.Integrity.Degraded()

	// A bit-perfect run must be bit-perfect everywhere: no degradation,
	// nothing held, every sample aggregated, and every code map
	// replicated byte-for-byte into every view of the store.
	if destructive == 0 {
		if degraded {
			t.Errorf("zero destructive faults but integrity degraded:\n%s",
				fleet.FormatFleetIntegrity(res.Integrity))
		}
		c := fleet.CheckConservation(res.Senders, res.Collector.Aggregate())
		if c.HeldSamples != 0 {
			t.Errorf("zero destructive faults but %d samples held", c.HeldSamples)
		}
		if res.SupervisorGaveUp {
			t.Error("zero destructive faults but supervisor gave up")
		}
		var mapsGen, mapsAcked uint64
		for _, s := range res.Senders {
			st := s.Stats()
			mapsGen += st.MapsGenerated
			mapsAcked += st.MapsAcked
		}
		if mapsGen == 0 {
			t.Error("run generated no code maps")
		}
		if mapsAcked != mapsGen {
			t.Errorf("zero destructive faults but only %d/%d maps acked", mapsAcked, mapsGen)
		}
		for name, agg := range aggs {
			if bad := fleet.CheckMapReplication(res.Senders, agg); len(bad) > 0 {
				t.Errorf("%s map replication violated:\n%v", name, bad)
			}
		}
	}

	// Windowed queries must partition the aggregate at any cut, in every
	// run — compacted or not, degraded or not.
	sumWindow := func(agg *fleet.Aggregate, from, to uint64) (n uint64) {
		for _, c := range agg.QueryWindow(from, to) {
			n += c
		}
		return n
	}
	for name, agg := range aggs {
		if min, max, ok := agg.TimeBounds(); ok && agg.Total() > 0 {
			cut := min + (max-min)/2
			lo, hi := sumWindow(agg, 0, cut), sumWindow(agg, cut, ^uint64(0))
			if lo+hi != agg.Total() {
				t.Errorf("%s window partition broken at %d: %d + %d != %d",
					name, cut, lo, hi, agg.Total())
			}
		}
	}

	// Degradation anywhere must be rooted in counted destruction —
	// no silent self-inflicted damage, no false alarms.
	if degraded && destructive == 0 {
		t.Errorf("degraded with zero destructive faults:\n%s",
			fleet.FormatFleetIntegrity(res.Integrity))
	}

	// A supervisor that gave up is the loudest degradation of all.
	if res.SupervisorGaveUp && !degraded {
		t.Error("supervisor gave up but integrity reports clean")
	}

	// Per-event spill/lost accounting must balance the sender ledgers.
	for _, s := range res.Senders {
		st := s.Stats()
		var byEv uint64
		for _, n := range st.SpilledByEvent {
			byEv += n
		}
		if byEv != st.SpilledSamples {
			t.Errorf("host stats: per-event spilled %d != spilled samples %d", byEv, st.SpilledSamples)
		}
		byEv = 0
		for _, n := range st.LostByEvent {
			byEv += n
		}
		if byEv != st.LostSamples {
			t.Errorf("host stats: per-event lost %d != lost samples %d", byEv, st.LostSamples)
		}
	}
}

func fleetSweepSeeds(t *testing.T, def int) int {
	if env := os.Getenv("VIPROF_FLEET_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad VIPROF_FLEET_SEEDS %q", env)
		}
		return n
	}
	return def
}

// TestFleetChaos is the fleet-smoke sweep: enough seeds to cover every
// scenario in isolation plus a band of compositions.
func TestFleetChaos(t *testing.T) {
	seeds := fleetSweepSeeds(t, 25)
	if seeds < int(numFleetScenarios) {
		seeds = int(numFleetScenarios)
	}
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		sched := FleetScheduleOf(seed)
		t.Run(sched.String()+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			r, err := RunFleetChaos(seed)
			if err != nil {
				t.Fatal(err)
			}
			checkFleetInvariants(t, r)
			if seed < int64(len(fleetSmokeDigests)) {
				if got := fleetDigest(t, r); got != fleetSmokeDigests[seed] {
					t.Errorf("disk + integrity digest %s, pinned %s", got, fleetSmokeDigests[seed])
				}
			}
		})
	}
}

// fleetSmokeDigests pins the behaviour contract of the fleet-smoke
// seeds: per seed, the SHA-256 of the rendered fleet integrity block
// plus every file on the collector's disk (fleetDigest). A change to
// how the fleet store is persisted or read back must leave every row
// unchanged; a mismatch prints the new digest.
var fleetSmokeDigests = [...]string{
	"fe6cf630d22e21a36117807af071df85e1211ef1a4c17aea65141c5f1ba67783", // 0 net-drop
	"96c4fafd62f04cdae350a0ea6dc0549242efab3badfc6729a4b14970f8d5edd4", // 1 net-dup
	"f576cc0232f2525bdfa9ab7975257d01e6a6a655baf27b3bee7b004c3d894d78", // 2 net-reorder
	"d004214c478f836afdd7806a11d61de9108c3721eebf7a8f20d546c4a3af67d2", // 3 net-latency
	"639e08c83381010d002b2c5aa03f3658ef03f5ca9682ac60d288c167660364ca", // 4 net-partition
	"0baaf034b2e24ad434af29da4c94eee8aca9356cf084ef3d2f7560a782f20205", // 5 collector-crash
	"6a196b4a5d8688e5bd6d5be3b561c677608c0162b6bd2b1c9a2a6845d43f1a55", // 6 fleet-enospc
	"9691836563705eb4ae1c8928352d6cbc887dff4a2ff734c14f9cbeb8256aaef7", // 7 torn-journal
	"0acaef3a033829e6dd9cb2aa3c8b71c499f63f51f083a9766f36d6e8e37d0273", // 8 torn-spill
	"1645754419dc29de3385ef4ede3bd7daf524ede61284f4f25951265064da0ce5", // 9 sender-kill
	"1e7adcf0cdc6b2fb53578c03cffc486e134477d2d6ec8a970eddf352e58977c4", // 10 rename-snapshot
	"3835fdaf9810c6aecaf874ec10f31868347c8625dd55057db30944d92fe85a31", // 11 fleet-dir-damage
	"7ce9da733367a5a1dd5bfd3add4f5e1aeea438c4786087441efd2e48e987b7dc", // 12 fleet-read-fault
	"59c306cf3c3a05e90af4f582e2b9305d24ef51410c30e7b2b730e52e6c0eae04", // 13 shard-kill
	"494cfe73d1a2c270c136a023a14b883cfe190fbe39321c307525bd3ae7062b6a", // 14 compact-kill
	"28f3bc0ecf519df6906583edf3038e8c501b6e88e7bb16d5937cfbd5e377e4f2", // 15 map-partition
	"9dce0a9f2bd7aa1815747af51fbd1c7748f613dea8980539edd336184ebc86e5", // 16 net-latency+fleet-enospc+net-dup
	"85e69d5f97ae20e312fccaf16750d856e6da3cbcd37417f9bd90421ee3a561a1", // 17 torn-spill
	"852b7f7c18175bce0ed3b49a302cb84b95f8e812ea04ce31ca6955a5aee356f9", // 18 rename-snapshot+shard-kill
	"d2dde18cdf5957002cd79dbb02c4011699783f5249eb7573d08a876092f45d36", // 19 torn-journal+fleet-enospc+fleet-dir-damage
	"1bb516eaaa2617c460af6763749acb237daa071ab846ee7f661394c7f88e0aec", // 20 shard-kill+net-reorder
	"3b69cc4c2469d8b2e027be805a8ddfde305e83cffead94d6237f4681ae6200f4", // 21 fleet-dir-damage+map-partition+net-partition
	"1bf9b1fdd2e203bbabe32bfc8e8ff0bfa1c3cc290d0cd3a58f5f48d51569d40d", // 22 shard-kill
	"20864ca8e0544000f94e1123f36bd444b4f26d0d5508e62f678ea1cf377331ee", // 23 shard-kill+sender-kill
	"04e3120eeff75c12d85e43c7488a7a051a49f7c534c9366a570b3862af4ff731", // 24 rename-snapshot+fleet-enospc+fleet-read-fault
}

// fleetDigest hashes the run's rendered fleet integrity block, then
// every disk file (path, length, bytes) in sorted path order.
func fleetDigest(t *testing.T, r *FleetChaosResult) string {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(fleet.FormatFleetIntegrity(r.Result.Integrity)))
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

// TestFleetChaosNightly widens the sweep (set VIPROF_FLEET_SEEDS, e.g.
// 300 in the chaos-nightly lane); without the env var it defers to
// TestFleetChaos's coverage.
func TestFleetChaosNightly(t *testing.T) {
	if os.Getenv("VIPROF_FLEET_SEEDS") == "" {
		t.Skip("set VIPROF_FLEET_SEEDS to run the nightly fleet sweep")
	}
	if testing.Short() {
		t.Skip("nightly sweep skipped in -short mode")
	}
	seeds := fleetSweepSeeds(t, 300)
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		sched := FleetScheduleOf(seed)
		t.Run(sched.String()+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			r, err := RunFleetChaos(seed)
			if err != nil {
				t.Fatal(err)
			}
			checkFleetInvariants(t, r)
		})
	}
}
