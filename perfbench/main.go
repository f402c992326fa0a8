// Command perfbench is the repository benchmark: three closed-loop
// workloads driven through the public functions of viprof and its
// internal packages, end-to-end host-time metrics from untraced runs, a
// per-layer ledger from a traced run, and a digest gate on the
// simulated outputs of every iteration. See README.md.
//
// Usage:
//
//	perfbench --workload profile-smp|report-archive|fleet-store --seed N
//	          --seconds S --trace 0|1 [--short] [--pins pins.json] [--workdir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed iteration (an
// error, a failed correctness check, or a digest that differs from the
// pinned one or from the run's first) makes the exit status nonzero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is what a workload's set-up receives.
type config struct {
	seed    int64
	short   bool
	workdir string // private scratch directory, removed at exit
}

// state is a set-up workload; iterate runs one closed-loop iteration.
type state interface {
	iterate(t *tracer) (*iterOut, error)
	close()
}

// iterOut is one iteration's outcome. write and read time the user
// path only (correctness checks, digesting and traced-run probes run
// outside them); queries holds each cold query's latency.
type iterOut struct {
	write, read cost
	queries     []cost
	digest      string
	// layer holds per-layer values the iteration derived: simulated
	// counters (also hashed into the digest) and probe counts.
	layer map[string]float64
	// human holds the workload's own headline figures for the summary.
	human map[string]float64
}

func (o *iterOut) total() cost { return o.write.add(o.read) }

type workloadDef struct {
	name  string
	setup func(config) (state, error)
}

var workloads = []workloadDef{
	{"profile-smp", setupProfileSMP},
	{"report-archive", setupReportArchive},
	{"fleet-store", setupFleetStore},
}

// A run sets its workload up at least minSetups times and until
// setupBudget has been spent (at most maxSetups times); setup_s is the
// median, so a set-up of a few milliseconds is measured as steadily as
// one of seconds.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// hostProcs is the GOMAXPROCS the benchmark runs under. With a second P
// the collector's idle-priority mark workers soak up whatever CPU the
// machine leaves free, so both clocks then measure the neighbours as
// much as the program; with one P the collector's share is time-sliced
// on the same thread and CPU time equals wall time less steal. The
// per-CPU daemon drain and the per-journal store scan still run as
// concurrent goroutines.
const hostProcs = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: profile-smp, report-archive, fleet-store")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	short := fs.Bool("short", false, "reduced workload sizes (self-test)")
	pinsPath := fs.String("pins", "perfbench/pins.json", "pinned digest table")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "scratch directory for archives and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostProcs))
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	pins, err := loadPins(*pinsPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(*workdir, wl.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	size := "full"
	if *short {
		size = "short"
	}
	g := &gate{stderr: stderr}
	g.pin, g.pinned = pins.pinned(size, wl.name, *seed)
	cfg := config{seed: *seed, short: *short, workdir: tmp}
	budget := time.Duration(*seconds * float64(time.Second))

	fmt.Fprintf(stdout, "perfbench %s seed=%d size=%s trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		wl.name, *seed, size, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	// Set-up, several times; the last one is kept.
	var setups []cost
	var st state
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		t0 := now()
		s, err := wl.setup(cfg)
		setups = append(setups, since(t0))
		spent += setups[i].wall
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		st = s
	}
	defer st.close()

	// One warm-up iteration, excluded from the timings.
	g.iterate(st, newTracer(false))

	var metrics map[string]metric
	if *traceFlag == 0 {
		outs := measure(st, g, newTracer(false), budget)
		summarize(stdout, wl.name, setups, outs, g.calib)
		metrics = endToEnd(setups, outs, g.calib)
	} else {
		plain := measure(st, g, newTracer(false), budget/2)
		tr := newTracer(true)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		traced := measure(st, g, tr, budget/2)
		pprof.StopCPUProfile()
		shares, nsamples, err := cpuShares(prof.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		l := newLedger(tr, traced, shares, nsamples)
		if base := medianDur(plain); base > 0 {
			l.overheadPct = 100 * (medianDur(traced) - base) / base
		}
		metrics = l.metrics()
		tracePath := filepath.Join(*workdir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, *seed))
		if err := tr.writeChrome(tracePath); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		summarize(stdout, wl.name, setups, plain, g.calib)
		l.report(stdout, medianDur(plain), medianDur(traced), tracePath)
	}
	res := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}
	g.report(stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gate is the per-iteration correctness check: the iteration must
// succeed (its own conservation and equality checks included) and its
// digest must equal the pinned digest for this seed, or, for a seed
// with no pin, the digest of the run's first iteration.
type gate struct {
	stderr            io.Writer
	pin               string
	pinned            bool
	first             string
	attempted, failed int
	// calib holds the reference kernel's CPU time before each iteration.
	calib []float64
}

func (g *gate) iterate(st state, t *tracer) *iterOut {
	g.attempted++
	t.iter = g.attempted
	// Start every iteration from a collected heap, so no iteration
	// inherits its predecessor's garbage or collector pacing.
	runtime.GC()
	if !t.on { // the end-to-end scale only; keep it out of the CPU profile
		for i := 0; i < calibSamples; i++ {
			g.calib = append(g.calib, calibrate().Seconds())
		}
	}
	out, err := st.iterate(t)
	if err == nil {
		if g.first == "" {
			g.first = out.digest
		}
		want := g.first
		if g.pinned {
			want = g.pin
		}
		if out.digest != want {
			err = fmt.Errorf("simulated-output digest %s, want %s", out.digest, want)
		}
	}
	if err != nil {
		g.failed++
		fmt.Fprintf(g.stderr, "perfbench: iteration %d failed: %v\n", g.attempted, err)
		return nil
	}
	return out
}

func (g *gate) report(w io.Writer) {
	how := "unpinned seed: every iteration must match the first"
	if g.pinned {
		how = "pinned"
	}
	fmt.Fprintf(w, "digest %s (%s)\n", g.first, how)
	fmt.Fprintf(w, "failed_frac %.4f (%d of %d iterations)\n", float64(g.failed)/float64(max(g.attempted, 1)), g.failed, g.attempted)
}

// measure runs closed-loop iterations until budget has elapsed (at
// least one) and returns the successful ones.
func measure(st state, g *gate, t *tracer, budget time.Duration) []*iterOut {
	var outs []*iterOut
	deadline := time.Now().Add(budget)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if out := g.iterate(st, t); out != nil {
			outs = append(outs, out)
		}
	}
	return outs
}

// endToEnd computes the untraced run's metrics. Times are process CPU
// time — on a shared machine the hypervisor can take a third of the
// wall clock from the guest for minutes at a time, and CPU time is the
// clock that does not count it (with one P it is otherwise wall time) —
// scaled to the reference speed (calib.go).
func endToEnd(setups []cost, outs []*iterOut, calib []float64) map[string]metric {
	c := collect(outs)
	k := refScale(calib)
	return map[string]metric{
		"setup_s":          {k * median(costs(setups).cpu), "s"},
		"iter_ref_s":       {k * median(c.iter.cpu), "s"},
		"read_ref_s":       {k * median(c.read.cpu), "s"},
		"query_ref_p50_ms": {k * median(c.query.cpu), "ms"},
		"alloc_mb":         {median(c.iter.allocMB), "MB"},
	}
}

// refScale converts this run's CPU times to reference-speed seconds.
func refScale(calib []float64) float64 {
	if m := median(calib); m > 0 {
		return calibRefSeconds / m
	}
	return 1
}

// series holds one figure per sample on each clock: seconds, except
// for queries, which are in milliseconds.
type series struct {
	wall, cpu, allocMB []float64
}

func costs(cs []cost) series { return scaled(cs, 1) }

func scaled(cs []cost, unit float64) series {
	var s series
	for _, c := range cs {
		s.wall = append(s.wall, c.wall.Seconds()*unit)
		s.cpu = append(s.cpu, c.cpu.Seconds()*unit)
		s.allocMB = append(s.allocMB, float64(c.alloc)/(1<<20))
	}
	return s
}

type samples struct {
	iter, read, query series
	human             map[string][]float64
}

func collect(outs []*iterOut) samples {
	var iters, reads, queries []cost
	human := make(map[string][]float64)
	for _, o := range outs {
		iters = append(iters, o.total())
		reads = append(reads, o.read)
		queries = append(queries, o.queries...)
		for k, v := range o.human {
			human[k] = append(human[k], v)
		}
	}
	return samples{iter: costs(iters), read: costs(reads), query: scaled(queries, 1e3), human: human}
}

// summarize prints every figure, on the wall clock and the CPU clock,
// as its median with its sample count and a p90 where at least ten
// samples lie beyond it; then the workload's own headline figures (wall
// clock) and the process's peak resident memory.
func summarize(w io.Writer, name string, setups []cost, outs []*iterOut, calib []float64) {
	c := collect(outs)
	line := func(label string, xs []float64, unit string) {
		fmt.Fprintf(w, "  %-24s median %.4f %s  n=%d", label, median(xs), unit, len(xs))
		if len(xs) >= 100 {
			fmt.Fprintf(w, "  p90 %.4f %s", quantile(xs, 0.9), unit)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s end-to-end (untraced), raw clocks:\n", name)
	su := costs(setups)
	line("setup_s (cpu)", su.cpu, "s")
	line("setup_s (wall)", su.wall, "s")
	line("iter_s (cpu)", c.iter.cpu, "s")
	line("iter_s (wall)", c.iter.wall, "s")
	line("read_s (cpu)", c.read.cpu, "s")
	line("read_s (wall)", c.read.wall, "s")
	line("query_ms (cpu)", c.query.cpu, "ms")
	line("query_ms (wall)", c.query.wall, "ms")
	line("alloc_mb", c.iter.allocMB, "MB")
	for _, k := range sortedKeys(c.human) {
		line(k, c.human[k], "")
	}
	fmt.Fprintf(w, "  %-24s %.1f MB (whole run, set-up included)\n", "peak_rss_mb", peakRSSMB())
	line("calibration_cpu_s", calib, "s")
	fmt.Fprintf(w, "  %-24s %.4f (reference %.4f s / calibration median)\n", "reference scale", refScale(calib), calibRefSeconds)
	fmt.Fprintf(w, "  iterations cpu/wall (s):")
	for i := range c.iter.cpu {
		fmt.Fprintf(w, " %.3f/%.3f", c.iter.cpu[i], c.iter.wall[i])
	}
	fmt.Fprintln(w)
}

// ledger turns a traced run into the per-layer metrics.
type ledger struct {
	iters       float64
	dur         map[string]time.Duration
	alloc       map[string]uint64
	layer       map[string]float64 // the last traced iteration's values
	shares      map[string]float64
	samples     int
	overheadPct float64
}

func newLedger(t *tracer, traced []*iterOut, shares map[string]float64, samples int) *ledger {
	ids := make(map[int]bool)
	for _, s := range t.spans {
		ids[s.iter] = true
	}
	l := &ledger{iters: float64(len(ids)), shares: shares, samples: samples, layer: map[string]float64{}}
	l.dur, l.alloc = t.spanTotals(ids)
	if len(traced) > 0 {
		l.layer = traced[len(traced)-1].layer
	}
	if l.iters == 0 {
		l.iters = 1
	}
	return l
}

// ms is the per-iteration milliseconds spent in the named spans.
func (l *ledger) ms(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += l.dur[n]
	}
	return float64(d.Nanoseconds()) / 1e6 / l.iters
}

// kb is the per-iteration KiB allocated across the named spans.
func (l *ledger) kb(names ...string) float64 {
	var b uint64
	for _, n := range names {
		b += l.alloc[n]
	}
	return float64(b) / 1024 / l.iters
}

func (l *ledger) per(v, n float64) float64 {
	if n == 0 {
		return 0
	}
	return v / n
}

type layerDef struct {
	name, unit, better string
	value              func(l *ledger) float64
}

func share(b string) func(*ledger) float64 { return func(l *ledger) float64 { return l.shares[b] } }
func val(k string) func(*ledger) float64   { return func(l *ledger) float64 { return l.layer[k] } }

// layerMetrics is the per-layer ledger, in the order of the table in
// README.md. *_ms/*_s are timed public calls per iteration, *_alloc_*
// heap bytes allocated across them, *.self_pct CPU-profile shares, and
// the counters are simulated statistics (part of the digest).
var layerMetrics = []layerDef{
	{"jvm.self_pct", "%", "lower", share("jvm")},
	{"jvm.trace_coverage", "fraction", "higher", val("jvm.trace_coverage")},
	{"jvm.trace_deopt_ratio", "fraction", "lower", val("jvm.trace_deopt_ratio")},
	{"cache.self_pct", "%", "lower", share("cache")},
	{"cpu.self_pct", "%", "lower", share("cpu")},
	{"hpc.self_pct", "%", "lower", share("hpc")},
	{"kernel.run_s", "s", "lower", func(l *ledger) float64 { return l.ms("kernel.Kernel.Run") / 1e3 }},
	{"kernel.run_alloc_mb", "MB", "lower", func(l *ledger) float64 { return l.kb("kernel.Kernel.Run") / 1024 }},
	{"kernel.self_pct", "%", "lower", share("kernel")},
	{"jvm.bytecodes", "count", "higher", val("jvm.bytecodes")},
	{"jvm.compiles", "count", "lower", val("jvm.compiles")},
	{"jvm.collections", "count", "lower", val("jvm.collections")},
	{"cpu.work_mcycles", "Mcycles", "lower", val("cpu.work_mcycles")},
	{"cache.l1d_miss_ratio", "fraction", "lower", val("cache.l1d_miss_ratio")},
	{"cache.l2_miss_ratio", "fraction", "lower", val("cache.l2_miss_ratio")},
	{"kernel.migrations", "count", "lower", val("kernel.migrations")},
	{"hpc.nmis", "count", "higher", val("hpc.nmis")},
	{"oprofile.shutdown_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("core.Session.Shutdown") }},
	{"oprofile.samples_logged", "count", "higher", val("oprofile.samples_logged")},
	{"oprofile.samples_dropped", "count", "lower", val("oprofile.samples_dropped")},
	{"oprofile.flushes", "count", "lower", val("oprofile.flushes")},
	{"oprofile.sample_file_kb", "KB", "lower", val("oprofile.sample_file_kb")},
	{"core.maps_written", "count", "lower", val("core.maps_written")},
	{"core.map_entries", "count", "lower", val("core.map_entries")},
	{"core.report_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("core.Session.Report") }},
	{"core.report_alloc_mb", "MB", "lower", func(l *ledger) float64 { return l.kb("core.Session.Report") / 1024 }},
	{"oprofile.format_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("oprofile.Format") }},
	{"kernel.load_disk_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("kernel.LoadDiskFrom") }},
	{"record.scan_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("record.Scan") }},
	{"record.self_pct", "%", "lower", share("record")},
	{"oprofile.parse_samples_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("oprofile.ReadCountsSalvage") }},
	{"oprofile.parse_alloc_kb_per_record", "KB", "lower", func(l *ledger) float64 {
		return l.per(l.kb("oprofile.ReadCountsSalvage"), l.layer["oprofile.sample_records"])
	}},
	{"oprofile.self_pct", "%", "lower", share("oprofile")},
	{"core.read_maps_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("core.ReadMapChain") }},
	{"core.resolve_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("core.NewResolver", "oprofile.BuildReport") }},
	{"core.epochs_searched_per_jit_key", "epochs", "lower", func(l *ledger) float64 {
		return l.per(l.layer["core.epochs_searched"], l.layer["core.jit_keys"])
	}},
	{"core.unresolved_jit", "count", "lower", val("core.unresolved_jit")},
	{"core.self_pct", "%", "lower", share("core")},
	{"core.phases_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("core.PhaseBreakdown", "core.FormatPhases") }},
	{"core.diff_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("core.DiffReports", "core.FormatDiff") }},
	{"fleet.ingest_s", "s", "lower", func(l *ledger) float64 { return l.ms("fleet.RunFleet") / 1e3 }},
	{"fleet.decode_us_per_frame", "us", "lower", func(l *ledger) float64 {
		return l.per(l.ms("fleet.DecodePayload")*1e3, l.layer["fleet.decoded_frames"])
	}},
	{"fleet.decode_alloc_kb_per_frame", "KB", "lower", func(l *ledger) float64 {
		return l.per(l.kb("fleet.DecodePayload"), l.layer["fleet.decoded_frames"])
	}},
	{"fleet.compact_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("fleet.CompactDisk") }},
	{"fleet.compactions", "count", "higher", val("fleet.compactions")},
	{"fleet.gen_files", "count", "lower", val("fleet.gen_files")},
	{"fleet.gen_frames", "count", "lower", val("fleet.gen_frames")},
	{"fleet.store_kb", "KB", "lower", val("fleet.store_kb")},
	{"fleet.replay_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("fleet.LoadStore") }},
	{"fleet.query_fold_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("fleet.Aggregate.QueryWindow") }},
	{"fleet.render_ms", "ms", "lower", func(l *ledger) float64 { return l.ms("viprof.FleetView.RenderWindow") }},
	{"fleet.ingested", "count", "higher", val("fleet.ingested")},
	{"fleet.duplicates", "count", "lower", val("fleet.duplicates")},
	{"fleet.acks", "count", "higher", val("fleet.acks")},
	{"fleet.sender_retries", "count", "lower", val("fleet.sender_retries")},
	{"fleet.journal_frames", "count", "lower", val("fleet.journal_frames")},
	{"fleet.self_pct", "%", "lower", share("fleet")},
	{"viprof.self_pct", "%", "lower", share("viprof")},
	{"image.self_pct", "%", "lower", share("image")},
	{"harness.self_pct", "%", "lower", share("harness")},
	{"workload.self_pct", "%", "lower", share("workload")},
	{"addr.self_pct", "%", "lower", share("addr")},
	{"xen.self_pct", "%", "lower", share("xen")},
	{"bench.self_pct", "%", "lower", share("bench")},
	{"runtime.gc_pct", "%", "lower", share("runtime.gc")},
	{"other.self_pct", "%", "lower", share("other")},
	{"trace.cpu_samples", "count", "higher", func(l *ledger) float64 { return float64(l.samples) }},
	{"trace.overhead_pct", "%", "lower", func(l *ledger) float64 { return l.overheadPct }},
}

func (l *ledger) metrics() map[string]metric {
	m := make(map[string]metric, len(layerMetrics))
	for _, d := range layerMetrics {
		m[d.name] = metric{d.value(l), d.unit}
	}
	return m
}

// report prints the tracing overhead and the CPU attribution.
func (l *ledger) report(w io.Writer, plain, traced float64, tracePath string) {
	fmt.Fprintf(w, "tracing overhead: traced iteration median %.4f s - untraced %.4f s = %+.4f s (%+.2f%%)\n",
		traced, plain, traced-plain, l.overheadPct)
	fmt.Fprintf(w, "CPU attribution (%d profile samples; leaf frame's repo package, runtime/stdlib leaves charged to the nearest repo caller):\n", l.samples)
	for _, b := range layerBuckets {
		if v := l.shares[b]; v > 0 || b == "other" || b == "runtime.gc" {
			fmt.Fprintf(w, "  %-12s %6.2f%%\n", b, v)
		}
	}
	fmt.Fprintf(w, "span timeline: %s\n", tracePath)
}

func medianDur(outs []*iterOut) float64 { return median(collect(outs).iter.cpu) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
