package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer records one span around every public call the benchmark makes
// into the repo's packages. A disabled tracer (the untraced runs every
// end-to-end metric comes from) records nothing, so begin/end cost two
// branches.
type tracer struct {
	on    bool
	iter  int // iteration id stamped on every span
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
}

// span is one timed call. alloc holds the heap bytes allocated between
// begin and end, by all goroutines.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	iter       int
	alloc      uint64
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		name: name, start: time.Since(t.epoch), parent: parent, iter: t.iter, alloc: heapAllocs(),
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	s.alloc = heapAllocs() - s.alloc
	t.open = t.open[:len(t.open)-1]
}

// spanTotals sums duration and allocation per span name over the spans
// of the given iterations.
func (t *tracer) spanTotals(iters map[int]bool) (dur map[string]time.Duration, alloc map[string]uint64) {
	dur = make(map[string]time.Duration)
	alloc = make(map[string]uint64)
	for _, s := range t.spans {
		if iters[s.iter] {
			dur[s.name] += s.end - s.start
			alloc[s.name] += s.alloc
		}
	}
	return dur, alloc
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps, one thread row per iteration),
// the timeline format chrome://tracing and Perfetto open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.iter,
			Args: map[string]any{"span": i, "parent": s.parent, "iter": s.iter, "alloc_bytes": s.alloc},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
