package main

import (
	"bytes"
	"fmt"

	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/harness"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/jvm/classes"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// profile-smp: one VIProf session on a 4-core machine (private L1/TLB
// per core, shared L2 and coherency directory, background noise on)
// profiling four paper benchmarks as concurrent VM processes with both
// Figure 1 events armed, then a rendered report per VM. The only
// workload that runs the simulator and the per-CPU driver and daemon.

var smpBenches = []string{"ps", "hsqldb", "antlr", "JVM98"}

const (
	smpCores      = 4
	smpCyclesP    = 90_000
	smpL2MissP    = 12_000
	smpReportRows = 0 // render every row
)

type smpState struct {
	seed  int64
	specs []workload.Spec
	progs []*classes.Program
	limit uint64
}

// setupProfileSMP generates the four programs.
func setupProfileSMP(cfg config) (state, error) {
	scale := 1.0
	if cfg.short {
		scale = 0.05
	}
	s := &smpState{seed: cfg.seed}
	var base float64
	for _, name := range smpBenches {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := workload.Build(spec, scale)
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, spec)
		s.progs = append(s.progs, prog)
		base += spec.BaseSeconds * scale
	}
	// The harness's runaway bound: 100x the calibrated base time.
	s.limit = uint64(base*100+60) * cpu.ClockHz
	return s, nil
}

func (s *smpState) close() {}

func (s *smpState) iterate(t *tracer) (*iterOut, error) {
	out := &iterOut{layer: make(map[string]float64), human: make(map[string]float64)}
	start := now()
	sp := t.begin("harness.BuildMachine")
	m := harness.BuildMachine(smpCores, s.seed)
	t.end(sp)
	sp = t.begin("harness.StartNoise")
	err := harness.StartNoise(m, s.seed^0x5EED)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	sp = t.begin("core.Start")
	session, err := core.Start(m, core.Config{Events: []oprofile.EventConfig{
		{Event: hpc.GlobalPowerEvents, Period: smpCyclesP},
		{Event: hpc.BSQCacheReference, Period: smpL2MissP},
	}})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	vms := make([]*jvm.VM, len(s.progs))
	procs := make([]*kernel.Process, len(s.progs))
	for i, prog := range s.progs {
		sp = t.begin("core.Session.LaunchJVM")
		vms[i], procs[i], err = session.LaunchJVM(prog, jvm.Config{HeapBytes: s.specs[i].HeapBytes})
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	runStart := now()
	sp = t.begin("kernel.Kernel.Run")
	err = m.Kern.Run(s.limit)
	t.end(sp)
	runDur := since(runStart)
	if err != nil {
		return nil, err
	}
	for i, vm := range vms {
		if !vm.Finished() {
			return nil, fmt.Errorf("profile-smp: %s did not finish: %v", smpBenches[i], vm.Err())
		}
	}
	// Counter overflows, read before Shutdown disarms the counters.
	var nmis uint64
	for _, c := range m.Cores {
		for _, ctr := range c.Bank.Armed() {
			nmis += ctr.Overflows()
		}
	}
	sp = t.begin("core.Session.Shutdown")
	session.Shutdown()
	t.end(sp)
	out.write = since(start)

	readStart := now()
	rendered := make([]string, len(vms))
	for i, vm := range vms {
		q := now()
		sp = t.begin("core.Session.Report")
		rep, _, err := session.Report(session.Images(vm), map[string]int{procs[i].Name: procs[i].PID})
		t.end(sp)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		sp = t.begin("oprofile.Format")
		err = oprofile.Format(&buf, rep, smpReportRows)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		rendered[i] = buf.String()
		out.queries = append(out.queries, since(q))
	}
	out.read = since(readStart)

	if err := checkPerCPU(session); err != nil {
		return nil, err
	}

	// Simulated outputs: these counters and the rendered reports are
	// the digest; they must repeat bit for bit.
	d := newDigest()
	var workCycles, l1Acc, l1Miss uint64
	for i, c := range m.Cores {
		d.num(fmt.Sprintf("cpu%d.cycles", i), float64(c.Cycles()))
		if c.Mem != nil {
			a, mi := c.Mem.L1.Stats()
			l1Acc += a
			l1Miss += mi
		}
	}
	for _, p := range m.Kern.Processes() {
		workCycles += p.CPUTime()
	}
	l2Acc, l2Miss := m.Cores[0].Mem.L2.Stats() // one L2 shared by every core
	var st jvm.Stats
	var tr jvm.TraceStats
	for _, vm := range vms {
		vs, ts := vm.Stats(), vm.TraceStats()
		st.BytecodesRun += vs.BytecodesRun
		st.BaselineCompiles += vs.BaselineCompiles
		st.OptCompiles += vs.OptCompiles
		st.Collections += vs.Collections
		tr.OpsReplayed += ts.OpsReplayed
		tr.Replays += ts.Replays
		tr.Deopts += ts.Deopts
	}
	var agents core.AgentStats
	for _, p := range procs {
		a := session.Agents[p.PID].Stats()
		agents.MapsWritten += a.MapsWritten
		agents.Entries += a.Entries
	}
	ds := session.Prof.Driver.Stats()
	sampleBytes, _ := m.Kern.Disk().Size(oprofile.SampleFile)
	sim := map[string]float64{
		"jvm.bytecodes":            float64(st.BytecodesRun),
		"jvm.compiles":             float64(st.BaselineCompiles + st.OptCompiles),
		"jvm.collections":          float64(st.Collections),
		"jvm.trace_coverage":       ratio(tr.OpsReplayed, st.BytecodesRun),
		"jvm.trace_deopt_ratio":    ratio(tr.Deopts, tr.Replays),
		"cpu.work_mcycles":         float64(workCycles) / 1e6,
		"cache.l1d_miss_ratio":     ratio(l1Miss, l1Acc),
		"cache.l2_miss_ratio":      ratio(l2Miss, l2Acc),
		"kernel.migrations":        float64(m.Kern.Migrations()),
		"hpc.nmis":                 float64(nmis),
		"oprofile.samples_logged":  float64(ds.Logged),
		"oprofile.samples_dropped": float64(ds.Dropped),
		"oprofile.flushes":         float64(session.Prof.Daemon.Flushes()),
		"oprofile.sample_file_kb":  float64(sampleBytes) / 1024,
		"core.maps_written":        float64(agents.MapsWritten),
		"core.map_entries":         float64(agents.Entries),
	}
	for _, k := range sortedKeys(sim) {
		d.num(k, sim[k])
		out.layer[k] = sim[k]
	}
	for i, r := range rendered {
		d.text("report."+smpBenches[i], r)
	}
	out.digest = d.sum()

	out.human["profile_s"] = out.total().wall.Seconds()
	out.human["sim_mcycles_per_s"] = float64(workCycles) / 1e6 / runDur.wall.Seconds()

	if t.on {
		sp = t.begin("probe")
		var refs []vmRef
		for _, p := range procs {
			refs = append(refs, vmRef{name: p.Name, pid: p.PID})
		}
		_, err := probePost(t, m.Kern.Disk(), session.Images(vms...), refs, session.Events(), out.layer)
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkPerCPU asserts the SMP bench's per-CPU conservation: each CPU's
// driver logged+dropped equals its NMIs, its daemon-aggregated count
// plus shard residue equals what it logged, and the per-CPU stats sum
// to the aggregate.
func checkPerCPU(s *core.Session) error {
	drv := s.Prof.Driver
	loggedCPU := s.Prof.Daemon.SamplesLoggedCPU()
	var nmi, logged, dropped uint64
	for ci := 0; ci < drv.NumCPU(); ci++ {
		cs := drv.StatsCPU(ci)
		nmi += cs.NMIs
		logged += cs.Logged
		dropped += cs.Dropped
		if cs.Logged+cs.Dropped != cs.NMIs {
			return fmt.Errorf("cpu%d driver unbalanced: logged %d + dropped %d != NMIs %d", ci, cs.Logged, cs.Dropped, cs.NMIs)
		}
		var agg uint64
		if ci < len(loggedCPU) {
			agg = loggedCPU[ci]
		}
		if agg+uint64(drv.ShardLen(ci)) != cs.Logged {
			return fmt.Errorf("cpu%d daemon unbalanced: aggregated %d + buffered %d != logged %d", ci, agg, drv.ShardLen(ci), cs.Logged)
		}
	}
	ds := drv.Stats()
	if nmi != ds.NMIs || logged != ds.Logged || dropped != ds.Dropped {
		return fmt.Errorf("per-CPU stats (%d/%d/%d) do not sum to aggregate (%d/%d/%d)", nmi, logged, dropped, ds.NMIs, ds.Logged, ds.Dropped)
	}
	if ds.Logged == 0 {
		return fmt.Errorf("no samples logged")
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
