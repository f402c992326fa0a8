package record_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"viprof/internal/core"
	"viprof/internal/fleet"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// statsRecord is any persisted stats record: its field table is its
// whole codec.
type statsRecord interface{ Fields() []record.Field }

// fresh returns a new zero record of r's type.
func fresh(r statsRecord) statsRecord {
	return reflect.New(reflect.TypeOf(r).Elem()).Interface().(statsRecord)
}

// statsGolden pins every stats record's bytes as the hand-written
// writers produced them before the records shared one codec: value is
// a fully populated record, want its payload, and decoded what reading
// want back yields (nil: value itself).
var statsGolden = []struct {
	name    string
	value   statsRecord
	want    string
	decoded statsRecord
}{
	{
		name: "daemon/2cpu",
		value: &oprofile.PersistedStats{
			NMIs: 70, Logged: 65, Dropped: 5, SamplesLogged: 60, Flushes: 9, FlushErrors: 2,
			Spilled: 16, Unflushed: 7, SpilledOnDisk: 11, SpilledLost: 5,
			SpillBatches: 3, SpillErrors: 1, JournalErrors: 1,
			SpilledLostByEvent: map[string]uint64{"CPU_CLK_UNHALTED": 5},
			PerCPU: map[string]map[int]uint64{
				"nmis":           {0: 40, 1: 30},
				"logged":         {0: 38, 1: 27},
				"dropped":        {0: 2, 1: 3},
				"samples_logged": {0: 35, 1: 25},
				"spilled_lost":   {0: 5},
			},
			Clean: true,
		},
		want: "nmis=70\nlogged=65\ndropped=5\nsamples_logged=60\nflushes=9\nflush_errors=2\nspilled=16\nunflushed=7\nspilled_on_disk=11\nspilled_lost=5\nspill_batches=3\nspill_errors=1\njournal_errors=1\nspilled_lost.CPU_CLK_UNHALTED=5\nnmis.cpu0=40\nlogged.cpu0=38\ndropped.cpu0=2\nsamples_logged.cpu0=35\nspilled_lost.cpu0=5\nnmis.cpu1=30\nlogged.cpu1=27\ndropped.cpu1=3\nsamples_logged.cpu1=25\nclean=1\n",
	},
	{
		name: "daemon/1cpu",
		value: &oprofile.PersistedStats{
			NMIs: 40, Logged: 38, Dropped: 2, SamplesLogged: 60, Flushes: 9, FlushErrors: 2,
			Spilled: 16, Unflushed: 7, SpilledOnDisk: 11, SpilledLost: 5,
			SpillBatches: 3, SpillErrors: 1, JournalErrors: 1,
			SpilledLostByEvent: map[string]uint64{"CPU_CLK_UNHALTED": 5},
			Clean:              true,
		},
		want: "nmis=40\nlogged=38\ndropped=2\nsamples_logged=60\nflushes=9\nflush_errors=2\nspilled=16\nunflushed=7\nspilled_on_disk=11\nspilled_lost=5\nspill_batches=3\nspill_errors=1\njournal_errors=1\nspilled_lost.CPU_CLK_UNHALTED=5\nclean=1\n",
	},
	{
		name: "agent",
		value: &core.AgentPersisted{AgentStats: core.AgentStats{
			Compiles: 120, Moves: 33, MapsWritten: 7, Entries: 150, MapBytes: 8192,
			MapWriteErrors: 2, DeferredEntries: 14, JournalErrors: 1,
		}, Clean: true},
		want: "compiles=120\nmoves=33\nmaps_written=7\nentries=150\nmap_bytes=8192\nmap_write_errors=2\ndeferred=14\njournal_errors=1\nclean=1\n",
	},
	{
		name: "recovery",
		value: &oprofile.RecoveryStats{
			Adopted: 1, Discarded: 2, Quarantined: 3, Failed: 4,
			SpillFramesMerged: 5, SpillFramesDiscarded: 6,
			SpillRecovered:      map[string]uint64{"GLOBAL_POWER_EVENTS": 7, "BSQ_CACHE_REFERENCE": 0},
			SpillRecoveredTotal: 7, SpillMergeErrors: 8, JournalsDamaged: 9, MarkerErrors: 10, Restarts: 11,
			Clean: true,
		},
		want: "adopted=1\ndiscarded=2\nquarantined=3\nfailed=4\nspill_frames_merged=5\nspill_frames_discarded=6\nspill_recovered_total=7\nspill_merge_errors=8\njournals_damaged=9\nmarker_errors=10\nrestarts=11\nspill_recovered.BSQ_CACHE_REFERENCE=0\nspill_recovered.GLOBAL_POWER_EVENTS=7\nclean=1\n",
	},
	{
		name: "retention/clean",
		value: &oprofile.RetentionStats{
			Scanned: 5, Kept: 2, Pruned: 3, KeptBytes: 400, PrunedBytes: 900,
			AgePruned: 1, CountPruned: 1, SizePruned: 1, PriorDamaged: true,
			Survivors: map[string]uint64{
				"var/lib/viprof/maps/7/map.3.tmp.quarantined": 2,
				"var/lib/viprof/maps/9/map.0.tmp.quarantined": 0,
			},
			Clean: true,
		},
		want: "scanned=5\nkept=2\npruned=3\nkept_bytes=400\npruned_bytes=900\nage_pruned=1\ncount_pruned=1\nsize_pruned=1\nstats_errors=0\nprior_damaged=1\nsurvivor.var/lib/viprof/maps/7/map.3.tmp.quarantined=2\nsurvivor.var/lib/viprof/maps/9/map.0.tmp.quarantined=0\nclean=1\n",
	},
	{
		name: "retention/unclean",
		value: &oprofile.RetentionStats{
			Scanned: 5, Kept: 2, Pruned: 3, KeptBytes: 400, PrunedBytes: 900,
			AgePruned: 1, CountPruned: 1, SizePruned: 1, StatsErrors: 1,
			Survivors: map[string]uint64{
				"var/lib/viprof/maps/7/map.3.tmp.quarantined": 2,
				"var/lib/viprof/maps/9/map.0.tmp.quarantined": 0,
			},
		},
		want: "scanned=5\nkept=2\npruned=3\nkept_bytes=400\npruned_bytes=900\nage_pruned=1\ncount_pruned=1\nsize_pruned=1\nstats_errors=1\nprior_damaged=0\nsurvivor.var/lib/viprof/maps/7/map.3.tmp.quarantined=2\nsurvivor.var/lib/viprof/maps/9/map.0.tmp.quarantined=0\nclean=0\n",
	},
	{
		name:  "collector/clean",
		value: collectorGolden(true),
		want:  "shards=4\ningested=9\nduplicates=2\nout_of_order=1\nmaps_applied=5\nwire_damaged=3\njournal_errors=1\nacks_sent=11\nrestarts=2\nreplay_errors=1\nreplayed_frames=7\nmarker_errors=1\ndead_letters=4\nsnapshot_errors=1\nfailovers=2\nhandoffs=6\nhandoff_errors=1\nmisrouted=3\ncompactions=2\ncompact_errors=1\nclean=1\n",
	},
	{
		name:  "collector/unclean",
		value: collectorGolden(false),
		want:  "shards=4\ningested=9\nduplicates=2\nout_of_order=1\nmaps_applied=5\nwire_damaged=3\njournal_errors=1\nacks_sent=11\nrestarts=2\nreplay_errors=1\nreplayed_frames=7\nmarker_errors=1\ndead_letters=4\nsnapshot_errors=1\nfailovers=2\nhandoffs=6\nhandoff_errors=1\nmisrouted=3\ncompactions=2\ncompact_errors=1\nclean=0\n",
	},
	{
		name:    "sender/clean",
		value:   senderGolden(true, true),
		want:    "generated=12\nsent=20\nretries=8\ntimeouts=8\nacked=10\nspilled=1\ndeferred=8\nlost=1\nspill_errors=1\nstats_errors=0\nspilled_samples=6\nlost_samples=4\nmaps_generated=3\nmaps_acked=3\nspilled_by_event.GLOBAL_POWER_EVENTS=6\nlost_by_event.BSQ_CACHE_REFERENCE=4\nclean=1\n",
		decoded: senderGolden(true, false),
	},
	{
		name:    "sender/unclean",
		value:   senderGolden(false, true),
		want:    "generated=12\nsent=20\nretries=8\ntimeouts=8\nacked=10\nspilled=1\ndeferred=8\nlost=1\nspill_errors=1\nstats_errors=0\nspilled_samples=6\nlost_samples=4\nmaps_generated=3\nmaps_acked=3\nspilled_by_event.GLOBAL_POWER_EVENTS=6\nlost_by_event.BSQ_CACHE_REFERENCE=4\nclean=0\n",
		decoded: senderGolden(false, false),
	},
}

func collectorGolden(clean bool) *fleet.CollectorStats {
	return &fleet.CollectorStats{
		Shards:   4,
		Ingested: 9, Duplicates: 2, OutOfOrder: 1, MapsApplied: 5, WireDamaged: 3,
		JournalErrors: 1, AcksSent: 11, Restarts: 2, ReplayErrors: 1,
		ReplayedFrames: 7, MarkerErrors: 1, DeadLetters: 4,
		Failovers: 2, Handoffs: 6, HandoffErrors: 1, Misrouted: 3,
		Compactions: 2, CompactErrors: 1, SnapshotErrors: 1,
		Clean: clean,
	}
}

// senderGolden is a populated sender record; zeros adds the zero
// per-event entries the writer leaves out.
func senderGolden(clean, zeros bool) *fleet.SenderStats {
	s := &fleet.SenderStats{
		Generated: 12, Sent: 20, Retries: 8, Timeouts: 8, Acked: 10,
		MapsGenerated: 3, MapsAcked: 3,
		Spilled: 1, Deferred: 8, Lost: 1, SpillErrors: 1,
		SpilledSamples: 6, LostSamples: 4,
		SpilledByEvent: map[string]uint64{"GLOBAL_POWER_EVENTS": 6},
		LostByEvent:    map[string]uint64{"BSQ_CACHE_REFERENCE": 4},
		Clean:          clean,
	}
	if zeros {
		s.SpilledByEvent["BSQ_CACHE_REFERENCE"] = 0
		s.LostByEvent["GLOBAL_POWER_EVENTS"] = 0
	}
	return s
}

// TestStatsRecordsGolden: every record encodes to its pinned bytes and
// decodes back to its value, and one malformed line fails the record.
func TestStatsRecordsGolden(t *testing.T) {
	for _, g := range statsGolden {
		t.Run(g.name, func(t *testing.T) {
			if got := string(record.EncodeKV(g.value.Fields())); got != g.want {
				t.Fatalf("payload drifted:\n got %q\nwant %q", got, g.want)
			}
			want := g.decoded
			if want == nil {
				want = g.value
			}
			got := fresh(g.value)
			if err := record.DecodeKV([]byte(g.want), got.Fields()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decode:\n got %+v\nwant %+v", got, want)
			}
			for _, bad := range []string{"clean\n", "clean=yes\n", "clean=-1\n"} {
				if err := record.DecodeKV([]byte(g.want+bad), fresh(g.value).Fields()); err == nil {
					t.Errorf("malformed line %q accepted", bad)
				}
			}
		})
	}
}

// A multi-core daemon record that lost samples past the hard cap names
// the loss twice, per event and per CPU. The per-CPU line must land in
// PerCPU, never as a phantom event "cpu0" that doubles the loss.
func TestDecodeDaemonPerCPUSpilledLost(t *testing.T) {
	payload := "spilled_lost=5\nspilled_lost.CPU_CLK_UNHALTED=5\n" +
		"nmis.cpu0=4\nspilled_lost.cpu0=5\nnmis.cpu1=3\nclean=1\n"
	var ps oprofile.PersistedStats
	if err := record.DecodeKV([]byte(payload), ps.Fields()); err != nil {
		t.Fatal(err)
	}
	if want := map[string]uint64{"CPU_CLK_UNHALTED": 5}; !reflect.DeepEqual(ps.SpilledLostByEvent, want) {
		t.Errorf("SpilledLostByEvent = %v, want %v", ps.SpilledLostByEvent, want)
	}
	if want := map[int]uint64{0: 5}; !reflect.DeepEqual(ps.PerCPU["spilled_lost"], want) {
		t.Errorf("PerCPU[spilled_lost] = %v, want %v", ps.PerCPU["spilled_lost"], want)
	}
}

// FuzzDecodeKV: decoding arbitrary bytes under every record's table
// never panics; whatever decodes re-encodes to a payload that decodes
// to the same value; and a line without '=' or with a non-numeric
// value fails the decode.
func FuzzDecodeKV(f *testing.F) {
	for _, g := range statsGolden {
		f.Add([]byte(g.want))
	}
	f.Add([]byte("spilled_lost.cpu0=5\nspilled_lost.cpu=1\nx.cpu2=3\n"))
	f.Add([]byte("clean\n"))
	f.Add([]byte("shards=18446744073709551616\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		malformed := false
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			_, v, ok := strings.Cut(line, "=")
			if _, err := strconv.ParseUint(v, 10, 64); !ok || err != nil {
				malformed = true
			}
		}
		for _, g := range statsGolden {
			a := fresh(g.value)
			err := record.DecodeKV(data, a.Fields())
			if malformed && err == nil {
				t.Fatalf("%s: malformed payload accepted: %q", g.name, data)
			}
			if err != nil {
				continue
			}
			enc := record.EncodeKV(a.Fields())
			b := fresh(g.value)
			if err := record.DecodeKV(enc, b.Fields()); err != nil {
				t.Fatalf("%s: re-encoded payload rejected: %v\n%q", g.name, err, enc)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: round trip changed the value:\n%+v\n%+v", g.name, a, b)
			}
		}
	})
}
