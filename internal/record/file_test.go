package record_test

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"viprof/internal/core"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// journalGolden pins the bytes of every commit-journal record a writer
// produces: the daemon's spill commit and recovery-begin marker and
// the VM agent's map commit, captured from the writers that formatted
// each record by hand before record.CommitFrame existed.
var journalGolden = []struct {
	name string
	got  []byte
	want string
}{
	{"daemon/spill", record.CommitFrame(oprofile.SpillCommitVerb, 7, 1234),
		"VPR1\f\x00\x00\x00T1fkspill 7 1234"},
	{"daemon/spill-max-seq", record.CommitFrame(oprofile.SpillCommitVerb, math.MaxUint64, 0),
		"VPR1\x1c\x00\x00\x00$z\x890spill 18446744073709551615 0"},
	{"daemon/recovery-begin", record.Frame([]byte(oprofile.RecoveryBeginMarker)),
		"VPR1\x0e\x00\x00\x00\xa5\xfd5(recovery-begin"},
	{"agent/commit", record.CommitFrame(core.AgentCommitVerb, 3, 41),
		"VPR1\v\x00\x00\x006F\xe4\x1bcommit 3 41"},
}

func TestJournalGolden(t *testing.T) {
	for _, g := range journalGolden {
		if string(g.got) != g.want {
			t.Errorf("%s: writer produced %q, golden %q", g.name, g.got, g.want)
		}
	}
}

// journalKind is one commit journal's layout.
type journalKind struct {
	name, path, verb, marker string
}

var journalKinds = []journalKind{
	{"daemon", oprofile.DaemonJournalFile, oprofile.SpillCommitVerb, oprofile.RecoveryBeginMarker},
	{"agent", core.AgentJournalPath(7), core.AgentCommitVerb, ""},
}

// TestJournal reads both journals through the one reader: every intact
// commit survives around damage, and every kind of damage is flagged.
func TestJournal(t *testing.T) {
	committed := map[uint64]uint64{1: 100, 2: 50}
	cases := []struct {
		name string
		// frames builds the file (nil: no file at all).
		frames func(k journalKind) [][]byte
		eio    bool
		// daemon and agent are the expected reads.
		daemon, agent record.Journal
	}{
		{
			name:   "missing",
			frames: func(journalKind) [][]byte { return nil },
			daemon: record.Journal{Committed: map[uint64]uint64{}, Missing: true},
			agent:  record.Journal{Committed: map[uint64]uint64{}, Missing: true},
		},
		{
			name: "unreadable",
			frames: func(k journalKind) [][]byte {
				return [][]byte{record.CommitFrame(k.verb, 1, 100)}
			},
			eio:    true,
			daemon: record.Journal{Committed: map[uint64]uint64{}, Damaged: true, Unreadable: true},
			agent:  record.Journal{Committed: map[uint64]uint64{}, Damaged: true, Unreadable: true},
		},
		{
			name: "clean",
			frames: func(k journalKind) [][]byte {
				return [][]byte{record.CommitFrame(k.verb, 1, 100), record.CommitFrame(k.verb, 2, 50)}
			},
			daemon: record.Journal{Committed: committed},
			agent:  record.Journal{Committed: committed},
		},
		{
			name: "torn-tail",
			frames: func(k journalKind) [][]byte {
				return [][]byte{record.CommitFrame(k.verb, 1, 100), record.CommitFrame(k.verb, 2, 50),
					record.CommitFrame(k.verb, 3, 25)[:5]}
			},
			daemon: record.Journal{Committed: committed, Damaged: true},
			agent:  record.Journal{Committed: committed, Damaged: true},
		},
		{
			name: "checksum-valid-unparseable",
			frames: func(k journalKind) [][]byte {
				return [][]byte{record.CommitFrame(k.verb, 1, 100), record.Frame([]byte(k.verb + " 3 x")),
					record.CommitFrame(k.verb, 2, 50)}
			},
			daemon: record.Journal{Committed: committed, Damaged: true},
			agent:  record.Journal{Committed: committed, Damaged: true},
		},
		{
			name: "unknown-verb",
			frames: func(k journalKind) [][]byte {
				return [][]byte{record.CommitFrame(k.verb, 1, 100), record.CommitFrame("rollback", 3, 25),
					record.CommitFrame(k.verb, 2, 50)}
			},
			daemon: record.Journal{Committed: committed, Damaged: true},
			agent:  record.Journal{Committed: committed, Damaged: true},
		},
		{
			// A recovery-begin marker is the daemon journal's evidence,
			// but a record the agent journal has no use for.
			name: "marker",
			frames: func(k journalKind) [][]byte {
				return [][]byte{record.CommitFrame(k.verb, 1, 100), record.Frame([]byte(oprofile.RecoveryBeginMarker)),
					record.CommitFrame(k.verb, 2, 50)}
			},
			daemon: record.Journal{Committed: committed, Markers: 1},
			agent:  record.Journal{Committed: committed, Damaged: true},
		},
	}
	for _, tc := range cases {
		for _, k := range journalKinds {
			disk := kernel.NewDisk()
			for _, fr := range tc.frames(k) {
				disk.Append(k.path, fr)
			}
			if tc.eio {
				disk.SetReadFaultInjector(kernel.ReadFaultPlan{Script: []int{0}})
			}
			got := record.ReadJournal(disk, k.path, k.verb, k.marker)
			want := tc.daemon
			if k.name == "agent" {
				want = tc.agent
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: read %+v, want %+v", tc.name, k.name, got, want)
			}
		}
	}
}

// TestReadFileSelection: Last takes the newest intact record whatever
// the damage; Only takes the one record of a lossless file and nothing
// else.
func TestReadFileSelection(t *testing.T) {
	a, b := record.Frame([]byte("a")), record.Frame([]byte("b"))
	disk := kernel.NewDisk()
	disk.Append("one", a)
	disk.Append("two", append(append([]byte(nil), a...), b...))
	disk.Append("torn", append(append([]byte(nil), a...), b[:5]...))
	for _, tc := range []struct {
		path       string
		last, only string // "" = none
	}{
		{"one", "a", "a"},
		{"two", "b", ""},
		{"torn", "a", ""},
		{"absent", "", ""},
	} {
		f := record.ReadFile(disk, tc.path)
		if f.Missing != (tc.path == "absent") {
			t.Errorf("%s: Missing=%v", tc.path, f.Missing)
		}
		for _, sel := range []struct {
			rule string
			pick func() ([]byte, bool)
			want string
		}{{"Last", f.Last, tc.last}, {"Only", f.Only, tc.only}} {
			p, ok := sel.pick()
			if ok != (sel.want != "") || string(p) != sel.want {
				t.Errorf("%s: %s = %q, %v; want %q", tc.path, sel.rule, p, ok, sel.want)
			}
		}
	}
}

// FuzzJournal feeds arbitrary journal bytes to the reader under both
// layouts. The reader must never panic, must ratify exactly what the
// intact records that parse as "<verb> <key> <n>" say (the last one
// per key wins), and must flag damage whenever salvage dropped bytes
// or an intact record is neither a commit nor the marker.
func FuzzJournal(f *testing.F) {
	var all []byte
	for _, g := range journalGolden {
		w := []byte(g.want)
		all = append(all, w...)
		f.Add(w)
		f.Add(w[:len(w)-1])
		flipped := append([]byte(nil), w...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add(all)
	f.Add(record.Frame([]byte("commit  3\t41 ")))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, sal := record.Scan(data)
		for _, k := range journalKinds {
			disk := kernel.NewDisk()
			disk.Append(k.path, data)
			j := record.ReadJournal(disk, k.path, k.verb, k.marker)
			want := make(map[uint64]uint64)
			markers, bad := 0, false
			for _, payload := range recs {
				s := string(payload)
				if k.marker != "" && s == k.marker {
					markers++
					continue
				}
				fields := strings.Fields(s)
				if len(fields) != 3 || fields[0] != k.verb || !strings.HasPrefix(s, k.verb+" ") {
					bad = true
					continue
				}
				key, err1 := strconv.ParseUint(fields[1], 10, 64)
				n, err2 := strconv.ParseUint(fields[2], 10, 64)
				if err1 != nil || err2 != nil {
					bad = true
					continue
				}
				want[key] = n
			}
			if !reflect.DeepEqual(j.Committed, want) {
				t.Fatalf("%s: committed %v, intact commits say %v (input %q)", k.name, j.Committed, want, data)
			}
			if j.Markers != markers {
				t.Fatalf("%s: %d markers, want %d (input %q)", k.name, j.Markers, markers, data)
			}
			if j.Damaged != (sal.Lossy() || bad) {
				t.Fatalf("%s: Damaged=%v with lossy=%v unparseable=%v (input %q)", k.name, j.Damaged, sal.Lossy(), bad, data)
			}
			if j.Missing || j.Unreadable {
				t.Fatalf("%s: present, readable journal read as missing=%v unreadable=%v", k.name, j.Missing, j.Unreadable)
			}
		}
	})
}
