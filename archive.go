package viprof

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"viprof/internal/core"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// Profile archives. Like oparchive for real OProfile data, a profiled
// run can be dumped to a real directory — sample files, code maps,
// RVM.map, plus the image symbol tables and a manifest — and
// post-processed later by vipreport (or LoadArchivedReport) with no
// simulation state.

const (
	manifestPath = "viprof-manifest.txt"
	imageMapDir  = "images"
)

// DumpProfile archives the run's profile data under dir.
func (o *Outcome) DumpProfile(dir string) error {
	m := o.RawMachine()
	if m == nil {
		return fmt.Errorf("viprof: run kept no machine state")
	}
	disk := m.Kern.Disk()
	images := o.Images()
	names := make([]string, 0, len(images))
	for name := range images {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var buf bytes.Buffer
		if err := image.WriteRVMMap(&buf, images[name]); err != nil {
			return err
		}
		disk.Append(imageMapDir+"/"+name+".map", buf.Bytes())
	}
	var man bytes.Buffer
	for _, ev := range o.Events {
		fmt.Fprintf(&man, "event %d\n", int(ev))
	}
	if p := o.RawProcess(); p != nil {
		fmt.Fprintf(&man, "vm %d %s\n", p.PID, p.Name)
	}
	disk.Append(manifestPath, man.Bytes())
	return disk.DumpTo(dir)
}

// archive is a profile archive opened for post-processing: its disk
// and what its manifest names.
type archive struct {
	disk   *kernel.Disk
	events []Event
	// vmPIDs maps each VM process name to its pid; firstVM is the name
	// on the first "vm" line ("" when there is none).
	vmPIDs  map[string]int
	firstVM string
}

// openArchive loads a directory written by DumpProfile and parses its
// manifest: "event <n>" and "vm <pid> <name>" lines. A malformed event
// or vm line rejects the archive; other lines are ignored.
func openArchive(dir string) (*archive, error) {
	disk, err := kernel.LoadDiskFrom(dir)
	if err != nil {
		return nil, err
	}
	//viplint:allow record-frame manifest is line-oriented plain text validated field-by-field by this parser
	manData, err := disk.Read(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("viprof: archive has no manifest: %v", err)
	}
	a := &archive{disk: disk, vmPIDs: make(map[string]int)}
	for _, line := range strings.Split(string(manData), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 2 && fields[0] == "event":
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("viprof: bad manifest event: %v", err)
			}
			a.events = append(a.events, hpc.Event(n))
		case len(fields) >= 3 && fields[0] == "vm":
			pid, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("viprof: bad manifest vm line: %v", err)
			}
			name := strings.Join(fields[2:], " ")
			a.vmPIDs[name] = pid
			if a.firstVM == "" {
				a.firstVM = name
			}
		}
	}
	return a, nil
}

// readSamples reads the run's sample file for a view built from what
// survived: record damage becomes a WARNING line written to out, and a
// file that cannot be read at all is an error.
func readSamples(disk *kernel.Disk, out *bytes.Buffer, view string) (map[oprofile.Key]uint64, error) {
	counts, f, err := oprofile.ReadSampleFile(disk, oprofile.SampleFile)
	if f.Missing || f.Unreadable {
		return nil, fmt.Errorf("viprof: no readable sample file %s", oprofile.SampleFile)
	}
	if sal := f.Salvage; err == nil && sal.Lossy() {
		fmt.Fprintf(out, "WARNING: sample file damaged — %d records dropped (%d bytes); %s built from the %d that survived\n",
			sal.DroppedRecords, sal.DroppedBytes, view, sal.Records)
	}
	return counts, err
}

// LoadArchivedReport rebuilds the vertically integrated report from a
// directory written by DumpProfile.
func LoadArchivedReport(dir string) (*Report, error) {
	a, err := openArchive(dir)
	if err != nil {
		return nil, err
	}
	images := make(map[string]*image.Image)
	for _, p := range a.disk.List() {
		if !strings.HasPrefix(p, imageMapDir+"/") || !strings.HasSuffix(p, ".map") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(p, imageMapDir+"/"), ".map")
		//viplint:allow record-frame RVM.map is the legacy line-oriented text format; ReadRVMMap fails per-line, a torn tail loses at most trailing symbols
		data, err := a.disk.Read(p)
		if err != nil {
			return nil, err
		}
		im, err := image.ReadRVMMap(strings.NewReader(string(data)), name)
		if err != nil {
			return nil, fmt.Errorf("viprof: image map %s: %v", name, err)
		}
		images[name] = im
	}
	rep, _, err := core.Vipreport(a.disk, images, a.vmPIDs, a.events)
	return rep, err
}

// LoadArchivedPhases rebuilds the per-epoch phase timeline for the
// archive's first VM process: sample share and hottest method per GC
// execution epoch (the VIVA agenda's phase view, derived entirely from
// VIProf's epoch tags).
func LoadArchivedPhases(dir string) (string, error) {
	a, err := openArchive(dir)
	if err != nil {
		return "", err
	}
	if a.firstVM == "" {
		return "", fmt.Errorf("viprof: archive manifest names no VM process")
	}
	var buf bytes.Buffer
	counts, err := readSamples(a.disk, &buf, "timeline")
	if err != nil {
		return "", err
	}
	res, err := core.NewResolver(a.disk, nil, a.vmPIDs)
	if err != nil {
		return "", err
	}
	primary := EventCycles
	if len(a.events) > 0 {
		primary = a.events[0]
	}
	rows := core.PhaseBreakdown(counts, res, a.firstVM, primary)
	if err := core.FormatPhases(&buf, rows, primary); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// DiffArchives joins two archived reports on (image, symbol) and
// renders the biggest movers of the primary event's share.
func DiffArchives(beforeDir, afterDir string, maxRows int) (string, error) {
	before, err := LoadArchivedReport(beforeDir)
	if err != nil {
		return "", fmt.Errorf("viprof: before archive: %v", err)
	}
	after, err := LoadArchivedReport(afterDir)
	if err != nil {
		return "", fmt.Errorf("viprof: after archive: %v", err)
	}
	primary := EventCycles
	if len(before.Events) > 0 {
		primary = before.Events[0]
	}
	rows := core.DiffReports(before, after, primary)
	var buf bytes.Buffer
	if err := core.FormatDiff(&buf, rows, maxRows); err != nil {
		return "", err
	}
	return buf.String(), nil
}
