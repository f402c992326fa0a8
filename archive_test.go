package viprof

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viprof/internal/oprofile"
	"viprof/internal/record"
)

func TestArchiveRoundTrip(t *testing.T) {
	out, err := ProfileBenchmark("fop", Options{Scale: 0.2, MissPeriod: 12_000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := out.DumpProfile(dir); err != nil {
		t.Fatal(err)
	}
	// The archive must contain the pieces a standalone post-processor
	// needs.
	for _, want := range []string{
		"var/lib/oprofile/samples.log",
		"RVM.map",
		"viprof-manifest.txt",
		filepath.Join("images", "vmlinux.map"),
	} {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(want))); err != nil {
			t.Errorf("archive missing %s: %v", want, err)
		}
	}

	rep, err := LoadArchivedReport(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded report must agree with the in-process one row for
	// row.
	if len(rep.Rows) != len(out.Report.Rows) {
		t.Fatalf("reloaded %d rows, original %d", len(rep.Rows), len(out.Report.Rows))
	}
	orig := map[string]uint64{}
	for _, r := range out.Report.Rows {
		orig[r.Image+"|"+r.Symbol] = r.Counts[EventCycles]
	}
	for _, r := range rep.Rows {
		if orig[r.Image+"|"+r.Symbol] != r.Counts[EventCycles] {
			t.Errorf("row %s/%s: reloaded %d, original %d",
				r.Image, r.Symbol, r.Counts[EventCycles], orig[r.Image+"|"+r.Symbol])
		}
	}
}

func TestLoadArchivedReportErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadArchivedReport(dir); err == nil {
		t.Error("empty archive accepted")
	}
	// A manifest without sample data loads — a daemon that crashed
	// before its first flush leaves exactly this shape — but the loss is
	// surfaced, never papered over.
	if err := os.WriteFile(filepath.Join(dir, "viprof-manifest.txt"),
		[]byte("event 0\nvm 3 jikesrvm\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadArchivedReport(dir)
	if err != nil {
		t.Fatalf("archive without sample data: %v", err)
	}
	if rep.Integrity == nil || !rep.Integrity.SampleFileMissing {
		t.Error("missing sample file not flagged in Integrity")
	}
	if !rep.Integrity.Degraded() {
		t.Error("missing sample file did not degrade the report")
	}
	if len(rep.Rows) != 0 {
		t.Errorf("%d rows conjured from no sample data", len(rep.Rows))
	}
}

// Both archive loaders parse the manifest with one parser, so a
// malformed event or vm line rejects the archive the same way in each.
func TestArchiveLoadersRejectBadManifest(t *testing.T) {
	for _, manifest := range []string{
		"event x\nvm 3 jikesrvm\n",
		"event 0\nvm x jikesrvm\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "viprof-manifest.txt"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		_, rerr := LoadArchivedReport(dir)
		_, perr := LoadArchivedPhases(dir)
		if rerr == nil || perr == nil || rerr.Error() != perr.Error() {
			t.Errorf("manifest %q: report error %v, phases error %v", manifest, rerr, perr)
		}
	}
}

// Annotate and the archived phase timeline share one sample-file
// reader: damage becomes the same WARNING line, and a file that cannot
// be read at all is an error.
func TestSampleViewsSalvageWarning(t *testing.T) {
	out, err := ProfileBenchmark("fop", Options{Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sig := ""
	for _, r := range out.Report.Rows {
		if r.Image == oprofile.JITImageName && r.Symbol != oprofile.NoSymbols {
			sig = r.Symbol
			break
		}
	}
	if sig == "" {
		t.Fatal("no resolved JIT row to annotate")
	}
	dir := t.TempDir()
	if err := out.DumpProfile(dir); err != nil {
		t.Fatal(err)
	}
	views := []struct {
		name  string
		build func() (string, error)
	}{
		{"annotation", func() (string, error) { return out.Annotate(sig) }},
		{"timeline", func() (string, error) { return LoadArchivedPhases(dir) }},
	}
	for _, view := range views {
		text, err := view.build()
		if err != nil || strings.HasPrefix(text, "WARNING") {
			t.Fatalf("%s on a clean run: err %v\n%s", view.name, err, text)
		}
	}

	// A torn record at the tail: one dropped record, the rest salvaged.
	torn := record.Frame([]byte("0\t0\t0\t1\t1\t0\tp\timg\n"))
	torn = torn[:len(torn)-3]
	out.RawMachine().Kern.Disk().Append(oprofile.SampleFile, torn)
	samples := filepath.Join(dir, filepath.FromSlash(oprofile.SampleFile))
	f, err := os.OpenFile(samples, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, view := range views {
		text, err := view.build()
		want := fmt.Sprintf("WARNING: sample file damaged — 1 records dropped (%d bytes); %s built from the ", len(torn), view.name)
		if err != nil || !strings.HasPrefix(text, want) {
			t.Errorf("%s on a torn sample file: err %v, want prefix %q\n%s", view.name, err, want, text)
		}
	}

	if err := os.Remove(samples); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArchivedPhases(dir); err == nil {
		t.Error("timeline built with no sample file")
	}
}
