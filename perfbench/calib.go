package main

import "time"

// On a shared host (the 2-vCPU virtual machine the baseline was taken
// on) the CPU time one iteration costs swung by almost 2x within a few
// minutes with no change to the program, from neighbours' use of the
// same cores and memory.
// Every run therefore also times a fixed reference kernel before each
// iteration, and the end-to-end timings are scaled by how much slower
// or faster than usual that kernel ran in this run. The kernel touches
// none of the repository's code and allocates nothing after its first
// run, so the program under test cannot change its speed; a change to the program moves the
// scaled figures exactly as it moves the raw ones.

// calibRefSeconds is the kernel's median CPU time on the machine the
// baseline was taken on (2 vCPUs, GOMAXPROCS=1). Scaled timings read as
// seconds on that machine at its usual speed.
const calibRefSeconds = 0.04

// calibSamples is how many times the kernel runs before each iteration.
// One sample varies by a fifth from the next; the run's median over
// them is the speed estimate.
const calibSamples = 3

// calibState is the kernel's working set, built once per process: a
// buffer cleared and copied in bulk (the memory traffic of fresh
// allocations) and a table probed at pseudo-random offsets (the
// cache misses of map-heavy simulation state).
type calibState struct {
	buf, dst []byte
	table    []uint64
}

var calibData *calibState

// calibrate runs the reference kernel once and returns its CPU time.
func calibrate() time.Duration {
	if calibData == nil {
		calibData = &calibState{buf: make([]byte, 4<<20), dst: make([]byte, 4<<20), table: make([]uint64, 1<<20)}
	}
	c := calibData
	start := processCPU()
	x := uint64(0x9E3779B97F4A7C15)
	for round := 0; round < 24; round++ {
		clear(c.buf)
		copy(c.dst, c.buf)
		for i := 0; i < 1<<17; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.table[x&(1<<20-1)] += x
		}
	}
	c.buf[0] = byte(x)
	return processCPU() - start
}
