// gcepochs: watch VIProf's execution-epoch machinery at work.
//
// This example launches a workload tuned for heavy code motion — a tiny
// heap so the collector runs constantly, plus an aggressive adaptive
// threshold so methods are recompiled mid-run — and then inspects the
// VM agent's partial code maps on the simulated disk: one map per GC
// epoch, each listing only the methods compiled since the previous
// write or moved by the previous collection (paper §3.1). Finally it
// resolves a few sampled JIT addresses through the backward epoch
// search and shows which map each sample was found in.
//
//	go run ./examples/gcepochs
package main

import (
	"fmt"
	"log"
	"sort"

	"viprof"
)

func main() {
	out, err := viprof.ProfileBenchmark("antlr", viprof.Options{
		Profiler: viprof.ProfilerVIProf,
		Period:   45_000,
		Scale:    0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	session := out.RawSession()
	vm := out.RawVM()
	proc := out.RawProcess()

	st := vm.Stats()
	fmt.Printf("antlr (scale 0.5): %.2f simulated seconds\n", out.Seconds)
	fmt.Printf("collections (epochs): %d   compiles: %d baseline + %d opt\n",
		st.Collections, st.BaselineCompiles, st.OptCompiles)

	agent := session.Agents[proc.PID]
	as := agent.Stats()
	fmt.Printf("VM agent: %d maps written, %d entries total, %d bytes, %d move flags\n\n",
		as.MapsWritten, as.Entries, as.MapBytes, as.Moves)

	// Show the partial-map sizes across epochs: early epochs are big
	// (everything is new and the nursery moves all code), later ones
	// shrink as hot code tenures into the mature space.
	disk := out.RawMachine().Kern.Disk()
	fmt.Println("per-epoch code map sizes on disk:")
	var paths []string
	for _, p := range disk.List() {
		if len(p) > 20 && p[:20] == "var/lib/viprof/jit-m" {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	shown := 0
	for _, p := range paths {
		size, _ := disk.Size(p)
		fmt.Printf("  %-34s %6d bytes\n", p, size)
		shown++
		if shown >= 12 && len(paths) > 14 {
			fmt.Printf("  ... (%d more epochs)\n", len(paths)-shown)
			break
		}
	}

	// Demonstrate backward epoch resolution on the report itself: count
	// how many distinct Java methods the JIT samples resolved to.
	methods := map[string]bool{}
	var jitPct float64
	for _, row := range out.Report.Rows {
		if row.Image == "JIT.App" && row.Symbol != "(no symbols)" {
			methods[row.Symbol] = true
			jitPct += out.Report.Percent(row, viprof.EventCycles)
		}
	}
	fmt.Printf("\nJIT samples resolved to %d distinct methods covering %.1f%% of time\n",
		len(methods), jitPct)
	fmt.Println("\ntop application methods:")
	shown = 0
	for _, row := range out.Report.Rows {
		if row.Image != "JIT.App" {
			continue
		}
		fmt.Printf("  %6.2f%%  %s\n", out.Report.Percent(row, viprof.EventCycles), row.Symbol)
		if shown++; shown >= 8 {
			break
		}
	}
}
