package oprofile

import (
	"fmt"
	"io"
	"sort"

	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
)

// Post-processing ("OProfile also includes postprocessing utilities to
// enable flexible reporting", §3). Post-processing is offline: it reads
// the sample files from the simulated disk and costs no simulated time.

// Row is one report line: counts per event for an (image, symbol) pair.
type Row struct {
	Image  string
	Symbol string
	Counts [hpc.NumEvents]uint64
}

// CPUTotals is one CPU's per-event sample totals — the report's
// per-CPU breakdown on SMP machines.
type CPUTotals struct {
	CPU    int
	Counts [hpc.NumEvents]uint64
}

// Report is an opreport-style symbol report.
type Report struct {
	Events []hpc.Event // column order
	Totals [hpc.NumEvents]uint64
	Rows   []Row // sorted descending by the first event's count

	// PerCPU splits Totals by the CPU each sample was taken on,
	// ascending by CPU id. The per-CPU entries always sum to Totals;
	// single-core runs have exactly one entry.
	PerCPU []CPUTotals

	// Integrity, when set, summarizes what was lost or damaged on the
	// way to this report (nil for purely in-memory reports).
	Integrity *Integrity

	// Precomputed views, built once (BuildReport, or lazily on first
	// use for hand-assembled reports) instead of re-scanning and
	// re-sorting the row set per lookup/view:
	symIdx  map[string]int        // symbol -> index of its first row in Rows order
	imgIdx  map[string]int        // image -> index into imgRows
	imgRows []Row                 // per-image aggregates, primary-event order
	byEvent map[hpc.Event][]int32 // Rows order per event column, as index slices
}

// ensureIndex builds the precomputed views. Rows must not be mutated
// after the first lookup/view call.
func (r *Report) ensureIndex() {
	if r.symIdx != nil {
		return
	}
	r.symIdx = make(map[string]int, len(r.Rows))
	r.imgIdx = make(map[string]int)
	for i, row := range r.Rows {
		if _, ok := r.symIdx[row.Symbol]; !ok {
			r.symIdx[row.Symbol] = i
		}
		j, ok := r.imgIdx[row.Image]
		if !ok {
			j = len(r.imgRows)
			r.imgIdx[row.Image] = j
			r.imgRows = append(r.imgRows, Row{Image: row.Image, Symbol: "*"})
		}
		for ev := range row.Counts {
			r.imgRows[j].Counts[ev] += row.Counts[ev]
		}
	}
	primary := hpc.GlobalPowerEvents
	if len(r.Events) > 0 {
		primary = r.Events[0]
	}
	sort.Slice(r.imgRows, func(i, j int) bool {
		if r.imgRows[i].Counts[primary] != r.imgRows[j].Counts[primary] {
			return r.imgRows[i].Counts[primary] > r.imgRows[j].Counts[primary]
		}
		return r.imgRows[i].Image < r.imgRows[j].Image
	})
	for j, row := range r.imgRows {
		r.imgIdx[row.Image] = j
	}
	r.byEvent = make(map[hpc.Event][]int32, len(r.Events))
	for _, ev := range r.Events {
		order := make([]int32, len(r.Rows))
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(a, b int) bool {
			x, y := &r.Rows[order[a]], &r.Rows[order[b]]
			if x.Counts[ev] != y.Counts[ev] {
				return x.Counts[ev] > y.Counts[ev]
			}
			if x.Image != y.Image {
				return x.Image < y.Image
			}
			return x.Symbol < y.Symbol
		})
		r.byEvent[ev] = order
	}
}

// ViewRows returns the report rows ordered by the given event column
// (descending, ties by image then symbol) — opreport's per-event view,
// served from the sort orders precomputed as index slices. Events
// outside the report's column set fall back to the primary order.
func (r *Report) ViewRows(ev hpc.Event) []Row {
	r.ensureIndex()
	order, ok := r.byEvent[ev]
	if !ok {
		return r.Rows
	}
	out := make([]Row, len(order))
	for i, j := range order {
		out[i] = r.Rows[j]
	}
	return out
}

// Percent returns the row's share of the report total for an event.
func (r *Report) Percent(row Row, ev hpc.Event) float64 {
	if r.Totals[ev] == 0 {
		return 0
	}
	return 100 * float64(row.Counts[ev]) / float64(r.Totals[ev])
}

// Find returns the first row whose symbol matches exactly (first in
// the primary sort order, via the precomputed symbol index).
func (r *Report) Find(symbol string) (Row, bool) {
	r.ensureIndex()
	i, ok := r.symIdx[symbol]
	if !ok {
		return Row{}, false
	}
	return r.Rows[i], true
}

// FindImage returns the total counts of all rows under an image name,
// served from the per-image aggregates built once with the report.
func (r *Report) FindImage(img string) (Row, bool) {
	r.ensureIndex()
	i, ok := r.imgIdx[img]
	if !ok {
		return Row{}, false
	}
	return r.imgRows[i], true
}

// NoSymbols is the placeholder opreport prints for images without
// symbol tables.
const NoSymbols = "(no symbols)"

// Resolver maps an aggregation key to display (image, symbol) names.
// The baseline resolver knows only object-file symbol tables; the
// VIProf post-processor (internal/core) layers RVM.map and epoch code
// maps on top by wrapping one of these.
type Resolver interface {
	Resolve(k Key) (img, symbol string)
}

// ELFResolver resolves keys against ordinary symbol tables, exactly
// like opreport: file-backed samples resolve to a symbol when the image
// has one; anonymous, JIT, and symbol-less images come out as
// "(no symbols)".
type ELFResolver struct {
	// Images maps image name to its symbol table. Entries may be
	// missing (stripped binaries, the RVM boot image's internal
	// format).
	Images map[string]*image.Image
}

// Resolve implements Resolver.
func (r *ELFResolver) Resolve(k Key) (string, string) {
	if k.JIT {
		// Plain OProfile has no JIT keys; if the extended driver logged
		// them but the baseline post-processor is used, they are opaque.
		return JITImageName, NoSymbols
	}
	im, ok := r.Images[k.Image]
	if !ok || im == nil || im.NumSymbols() == 0 {
		return k.Image, NoSymbols
	}
	if s, found := im.Resolve(k.Off); found {
		return k.Image, s.Name
	}
	return k.Image, NoSymbols
}

// BuildReport aggregates raw counts into a symbol report using the
// given resolver and event column order.
func BuildReport(counts map[Key]uint64, res Resolver, events []hpc.Event) *Report {
	type rowKey struct{ img, sym string }
	agg := make(map[rowKey]*Row)
	cpuAgg := make(map[int]*CPUTotals)
	rep := &Report{Events: events}
	for k, c := range counts {
		img, sym := res.Resolve(k)
		rk := rowKey{img, sym}
		row, ok := agg[rk]
		if !ok {
			row = &Row{Image: img, Symbol: sym}
			agg[rk] = row
		}
		row.Counts[k.Event] += c
		rep.Totals[k.Event] += c
		ct, ok := cpuAgg[k.CPU]
		if !ok {
			ct = &CPUTotals{CPU: k.CPU}
			cpuAgg[k.CPU] = ct
		}
		ct.Counts[k.Event] += c
	}
	for _, ct := range cpuAgg {
		rep.PerCPU = append(rep.PerCPU, *ct)
	}
	sort.Slice(rep.PerCPU, func(i, j int) bool { return rep.PerCPU[i].CPU < rep.PerCPU[j].CPU })
	rep.Rows = make([]Row, 0, len(agg))
	for _, row := range agg {
		rep.Rows = append(rep.Rows, *row)
	}
	primary := hpc.GlobalPowerEvents
	if len(events) > 0 {
		primary = events[0]
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Counts[primary] != b.Counts[primary] {
			return a.Counts[primary] > b.Counts[primary]
		}
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		return a.Symbol < b.Symbol
	})
	rep.ensureIndex()
	return rep
}

// Opreport reads the sample file from disk and builds the baseline
// (JIT-blind) report — the lower half of the paper's Figure 1.
func Opreport(disk *kernel.Disk, images map[string]*image.Image, events []hpc.Event) (*Report, error) {
	counts, f, err := ReadSampleFile(disk, SampleFile)
	switch {
	case f.Missing || f.Unreadable:
		return nil, fmt.Errorf("opreport: no readable sample file %s", SampleFile)
	case err != nil:
		return nil, err
	case f.Salvage.Lossy():
		// The baseline report has no Integrity section to show damage
		// in, so damage is an error rather than a silent undercount.
		return nil, fmt.Errorf("oprofile: sample file corrupt: %d records dropped (%d bytes)",
			f.Salvage.DroppedRecords, f.Salvage.DroppedBytes)
	}
	return BuildReport(counts, &ELFResolver{Images: images}, events), nil
}

// eventLabel returns the percentage-column header for an event, as the
// paper's Figure 1 captions them.
func eventLabel(ev hpc.Event) string {
	switch ev {
	case hpc.GlobalPowerEvents:
		return "Time %"
	case hpc.BSQCacheReference:
		return "Dmiss %"
	default:
		return ev.String() + " %"
	}
}

// Format renders the report in Figure 1's layout: one percentage column
// per event, then image and symbol names. maxRows <= 0 prints all rows.
func Format(w io.Writer, r *Report, maxRows int) error {
	for _, ev := range r.Events {
		if _, err := fmt.Fprintf(w, "%-9s", eventLabel(ev)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-28s %s\n", "Image name", "Symbol name"); err != nil {
		return err
	}
	n := len(r.Rows)
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	for _, row := range r.Rows[:n] {
		for _, ev := range r.Events {
			if _, err := fmt.Fprintf(w, "%-9.4f", r.Percent(row, ev)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%-28s %s\n", row.Image, row.Symbol); err != nil {
			return err
		}
	}
	// Per-CPU breakdown, SMP runs only: single-core reports stay
	// byte-identical to pre-SMP output.
	if len(r.PerCPU) > 1 {
		if _, err := fmt.Fprintf(w, "\nSamples by CPU:\n"); err != nil {
			return err
		}
		for _, ct := range r.PerCPU {
			if _, err := fmt.Fprintf(w, "  cpu%-3d", ct.CPU); err != nil {
				return err
			}
			for _, ev := range r.Events {
				pct := 0.0
				if r.Totals[ev] > 0 {
					pct = 100 * float64(ct.Counts[ev]) / float64(r.Totals[ev])
				}
				if _, err := fmt.Fprintf(w, " %s=%d (%.1f%%)", ev, ct.Counts[ev], pct); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
