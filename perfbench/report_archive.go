package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"viprof"
	"viprof/internal/core"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// report-archive: set-up profiles three benchmarks densely on 4 cores
// and archives each run with DumpProfile; each iteration then does what
// vipreport -dir, vipreport -phases and vipdiff do over those archives.
// No simulation runs in the loop: this is the read side of the sample
// file and code-map formats, and the offline path users run.

var archiveBenches = []string{"bloat", "hsqldb", "antlr"}

// archivePairs are the (before, after) archive indexes vipdiff compares.
var archivePairs = [][2]int{{0, 1}, {1, 2}}

const (
	archiveCyclesP = 45_000
	archiveL2MissP = 12_000
	archiveCores   = 4
)

type archived struct {
	name   string
	dir    string
	live   *oprofile.Report // the report of the run the archive holds
	images map[string]*image.Image
	vm     vmRef
	events []hpc.Event
}

type archiveState struct {
	root     string
	archives []archived
}

func setupReportArchive(cfg config) (state, error) {
	scale := 1.0
	if cfg.short {
		scale = 0.05
	}
	root, err := os.MkdirTemp(cfg.workdir, "archives-")
	if err != nil {
		return nil, err
	}
	s := &archiveState{root: root}
	for _, name := range archiveBenches {
		o, err := viprof.ProfileBenchmark(name, viprof.Options{
			Scale: scale, Period: archiveCyclesP, MissPeriod: archiveL2MissP,
			Seed: cfg.seed, Cores: archiveCores,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		dir := filepath.Join(root, name)
		if err := o.DumpProfile(dir); err != nil {
			s.close()
			return nil, err
		}
		p := o.RawProcess()
		s.archives = append(s.archives, archived{
			name: name, dir: dir, live: o.Report, images: o.Images(),
			vm: vmRef{name: p.Name, pid: p.PID}, events: o.Events,
		})
	}
	return s, nil
}

func (s *archiveState) close() { os.RemoveAll(s.root) }

func (s *archiveState) iterate(t *tracer) (*iterOut, error) {
	out := &iterOut{layer: make(map[string]float64), human: make(map[string]float64)}
	start := now()
	reports := make([]*oprofile.Report, len(s.archives))
	rendered := make([]string, 0, len(s.archives)*2+len(archivePairs))
	for i, a := range s.archives {
		q := now()
		sp := t.begin("viprof.LoadArchivedReport")
		rep, err := viprof.LoadArchivedReport(a.dir)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", a.name, err)
		}
		var buf bytes.Buffer
		sp = t.begin("oprofile.Format")
		err = oprofile.Format(&buf, rep, 0)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		out.queries = append(out.queries, since(q))
		reports[i] = rep
		rendered = append(rendered, buf.String())
	}
	for _, a := range s.archives {
		q := now()
		sp := t.begin("viprof.LoadArchivedPhases")
		ph, err := viprof.LoadArchivedPhases(a.dir)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s phases: %v", a.name, err)
		}
		out.queries = append(out.queries, since(q))
		rendered = append(rendered, ph)
	}
	for _, p := range archivePairs {
		q := now()
		sp := t.begin("viprof.DiffArchives")
		diff, err := viprof.DiffArchives(s.archives[p[0]].dir, s.archives[p[1]].dir, 0)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		out.queries = append(out.queries, since(q))
		rendered = append(rendered, diff)
	}
	out.read = since(start)

	// The archive must say what the live run said, row for row.
	for i, a := range s.archives {
		if !reflect.DeepEqual(reports[i].Rows, a.live.Rows) || reports[i].Totals != a.live.Totals {
			return nil, fmt.Errorf("%s: archived report differs from the live report (%d vs %d rows)", a.name, len(reports[i].Rows), len(a.live.Rows))
		}
	}
	d := newDigest()
	for i, r := range rendered {
		d.text(fmt.Sprintf("out%d", i), r)
	}
	out.digest = d.sum()
	out.human["report_s"] = out.read.wall.Seconds()

	if t.on {
		sp := t.begin("probe")
		err := s.probe(t, reports, out.layer)
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probe times the layers under the archive loaders: the directory load,
// the Vipreport steps, and the phase and diff builders on already
// loaded data.
func (s *archiveState) probe(t *tracer, reports []*oprofile.Report, layer map[string]float64) error {
	for _, a := range s.archives {
		sp := t.begin("kernel.LoadDiskFrom")
		disk, err := kernel.LoadDiskFrom(a.dir)
		t.end(sp)
		if err != nil {
			return err
		}
		counts, err := probePost(t, disk, a.images, []vmRef{a.vm}, a.events, layer)
		if err != nil {
			return err
		}
		// A fresh resolver, as LoadArchivedPhases builds one: the phase
		// view pays for its own map-chain lookups.
		res, err := core.NewResolver(disk, a.images, map[string]int{a.vm.name: a.vm.pid})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		sp = t.begin("core.PhaseBreakdown")
		rows := core.PhaseBreakdown(counts, res, a.vm.name, a.events[0])
		t.end(sp)
		sp = t.begin("core.FormatPhases")
		err = core.FormatPhases(&buf, rows, a.events[0])
		t.end(sp)
		if err != nil {
			return err
		}
	}
	for _, p := range archivePairs {
		var buf bytes.Buffer
		sp := t.begin("core.DiffReports")
		rows := core.DiffReports(reports[p[0]], reports[p[1]], s.archives[p[0]].events[0])
		t.end(sp)
		sp = t.begin("core.FormatDiff")
		err := core.FormatDiff(&buf, rows, 0)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}
