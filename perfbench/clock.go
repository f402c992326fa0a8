package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// stamp is a point on the wall clock, the process's CPU clock and its
// cumulative heap-allocation counter.
type stamp struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// cost is an interval: wall time, CPU time (user + system, every
// thread) and heap bytes allocated, by every goroutine, in between.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (c cost) add(o cost) cost { return cost{c.wall + o.wall, c.cpu + o.cpu, c.alloc + o.alloc} }

func now() stamp { return stamp{wall: time.Now(), cpu: processCPU(), alloc: heapAllocs()} }

func since(s stamp) cost {
	cpu, alloc := processCPU(), heapAllocs()
	return cost{wall: time.Since(s.wall), cpu: cpu - s.cpu, alloc: alloc - s.alloc}
}

// processCPU is the CPU time the process has used. Time the hypervisor
// gives to other guests (steal) is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs reads the cumulative heap bytes allocated. Unlike
// runtime.ReadMemStats it does not stop the world.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
