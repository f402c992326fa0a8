package main

import (
	"fmt"

	"viprof/internal/core"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// vmRef names one profiled VM process.
type vmRef struct {
	name string
	pid  int
}

// probePost re-runs, as separate timed public calls, the steps that
// core.Vipreport composes on one disk: record framing, sample parse,
// code-map chain read, resolver construction and report build. It runs
// only in traced iterations, outside the timed user path, so the layer
// timings it yields cost the end-to-end figures nothing. It returns the
// parsed counts for further probes.
func probePost(t *tracer, disk *kernel.Disk, images map[string]*image.Image, vms []vmRef, events []hpc.Event, layer map[string]float64) (map[oprofile.Key]uint64, error) {
	data, err := disk.Read(oprofile.SampleFile)
	if err != nil {
		return nil, err
	}
	sp := t.begin("record.Scan")
	record.Scan(data)
	t.end(sp)
	sp = t.begin("oprofile.ReadCountsSalvage")
	counts, sal, err := oprofile.ReadCountsSalvage(data)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	layer["oprofile.sample_records"] += float64(sal.Records)
	for _, vm := range vms {
		sp = t.begin("core.ReadMapChain")
		_, err := core.ReadMapChain(disk, vm.pid)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("core.NewResolver")
		res, err := core.NewResolver(disk, images, map[string]int{vm.name: vm.pid})
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("oprofile.BuildReport")
		rep := oprofile.BuildReport(counts, res, events)
		t.end(sp)
		if len(rep.Rows) == 0 {
			return nil, fmt.Errorf("probe: empty report for pid %d", vm.pid)
		}
		layer["core.unresolved_jit"] += float64(res.Unresolved())
		for depth, n := range res.SearchDepths {
			layer["core.jit_keys"] += float64(n)
			layer["core.epochs_searched"] += float64(depth) * float64(n)
		}
	}
	return counts, nil
}
