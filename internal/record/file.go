package record

import (
	"strconv"
	"strings"

	"viprof/internal/kernel"
)

// File is one framed file read back through the salvage layer: the
// one read path every durable log shares. Each caller states its own
// selection rule over Recs (Last, Only, or all of them).
type File struct {
	// Recs are the intact records' payloads in file order.
	Recs [][]byte
	// Salvage accounts for what the scan had to drop.
	Salvage Salvage
	// Missing reports that the file does not exist.
	Missing bool
	// Unreadable reports an EIO reading the file back (Recs is empty).
	Unreadable bool
}

// ReadFile reads a framed file and salvage-scans it. It never fails:
// absence, an EIO and record damage are all reported on the File. A
// missing file costs no read, so the read-fault schedule sees exactly
// the reads an Exists-then-Read caller would make.
func ReadFile(disk *kernel.Disk, path string) File {
	if !disk.Exists(path) {
		return File{Missing: true}
	}
	data, err := disk.Read(path)
	if err != nil {
		return File{Unreadable: true}
	}
	recs, sal := Scan(data)
	return File{Recs: recs, Salvage: sal}
}

// Last returns the last intact record: the rule for files that append
// one record per completed pass, where the newest intact one wins.
func (f File) Last() ([]byte, bool) {
	if len(f.Recs) == 0 {
		return nil, false
	}
	return f.Recs[len(f.Recs)-1], true
}

// Only returns the file's one intact record when the scan lost
// nothing: the rule for files written exactly once, where anything
// else is as untrustworthy as no file at all.
func (f File) Only() ([]byte, bool) {
	if f.Salvage.Lossy() || len(f.Recs) != 1 {
		return nil, false
	}
	return f.Recs[0], true
}

// Journal is a parsed commit journal. Every commit is one framed
// "<verb> <key> <n>" record ratifying key with a count n; a journal
// may also carry bare marker records (evidence that some pass began).
// The daemon's spill journal and each VM agent's map journal are both
// read through it.
type Journal struct {
	// Committed maps ratified keys to the count their commit claimed.
	Committed map[uint64]uint64
	// Markers counts intact marker records.
	Markers int
	// Damaged reports salvage loss, an intact record that does not
	// parse, or an unreadable file: the journal cannot be fully trusted.
	Damaged bool
	// Missing reports that the journal file does not exist.
	Missing bool
	// Unreadable reports an EIO reading the journal back (Damaged is
	// set too): no commit can be verified.
	Unreadable bool
}

// CommitFrame formats the framed commit record "<verb> <key> <n>".
func CommitFrame(verb string, key, n uint64) []byte {
	return Frame([]byte(verb + " " + strconv.FormatUint(key, 10) + " " + strconv.FormatUint(n, 10)))
}

// ReadJournal reads the commit journal at path. A record "<verb> <key>
// <n>" ratifies key; a record equal to marker (when marker is not
// empty) counts as a marker; any other intact record marks the journal
// damaged, as does salvage loss or an EIO.
func ReadJournal(disk *kernel.Disk, path, verb, marker string) Journal {
	f := ReadFile(disk, path)
	j := Journal{
		Committed:  make(map[uint64]uint64),
		Damaged:    f.Unreadable || f.Salvage.Lossy(),
		Missing:    f.Missing,
		Unreadable: f.Unreadable,
	}
	for _, payload := range f.Recs {
		s := string(payload)
		if marker != "" && s == marker {
			j.Markers++
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(s, verb+" "))
		if !strings.HasPrefix(s, verb+" ") || len(fields) != 2 {
			j.Damaged = true
			continue
		}
		key, err1 := strconv.ParseUint(fields[0], 10, 64)
		n, err2 := strconv.ParseUint(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			j.Damaged = true
			continue
		}
		j.Committed[key] = n
	}
	return j
}
