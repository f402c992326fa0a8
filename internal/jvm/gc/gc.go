// Package gc implements the VM's semispace copying garbage collector.
//
// As in Jikes RVM, "the code and data regions are both interwound into a
// single heap" (paper §3.1): compiled method bodies are ordinary heap
// objects, so a collection can relocate code. Each completed collection
// starts a new *execution epoch*; VIProf's VM agent writes a partial
// code map at every epoch boundary and the profiler tags samples with
// the epoch in which they were taken, which is what makes samples in
// moved code attributable after the fact.
package gc

import (
	"fmt"
	"math/bits"

	"viprof/internal/addr"
)

// Kind classifies a heap object.
type Kind uint8

// Object kinds.
const (
	KindData  Kind = iota // plain object: ref slots + scalar slots
	KindArray             // array: scalar or ref elements
	KindCode              // compiled method body
)

// HeaderBytes is the object header size charged to every allocation.
const HeaderBytes = 8

// Object is a heap object. Go object identity is stable; only the
// simulated address changes when the collector moves it.
type Object struct {
	Addr addr.Address
	Size uint32 // total bytes including header
	Kind Kind

	// Refs are the reference slots (fields for KindData, elements for
	// ref arrays). The collector traces through them.
	Refs []*Object
	// Scalars hold non-reference payload for arrays and fields.
	Scalars []int64
	// Meta lets the VM attach its own descriptor (e.g. the compiled
	// method a KindCode object backs).
	Meta interface{}

	marked bool  // used during collection
	age    uint8 // collections survived (promotion at MatureAge)
}

// Age returns the number of collections the object has survived.
func (o *Object) Age() int { return int(o.age) }

// FieldAddr returns the simulated address of scalar slot i, used to
// drive the cache model on field and array accesses.
func (o *Object) FieldAddr(i int) addr.Address {
	return o.Addr + HeaderBytes + addr.Address(i)*8
}

// Hooks let the VM and profiler agents observe collector activity.
// All hooks may be nil.
type Hooks struct {
	// PreGC runs before a collection begins, while all objects are
	// still at their old addresses. VIProf's VM agent writes its code
	// map for the closing epoch here ("we perform this write just
	// before the launching of the garbage collection", §3.1).
	PreGC func(epoch int)
	// Moved runs for each *code* object the collection relocated. The
	// paper's agent merely flags the method as moved (logging would be
	// a call out of tuned GC code); honoring that, implementations
	// should do minimal work here.
	Moved func(obj *Object, old addr.Address)
	// PostGC runs after the collection completes, at the start of the
	// new epoch.
	PostGC func(epoch int, stats CollectStats)
	// Work charges simulated execution to the VM's GC code: phase is a
	// coarse label, units scales with the work done.
	Work func(phase string, units int)
}

// CollectStats summarizes one collection.
type CollectStats struct {
	Live       int    // objects copied
	LiveBytes  uint64 // bytes copied
	Freed      int    // objects reclaimed
	FreedBytes uint64
	CodeMoved  int // code objects relocated
}

// MatureAge is the number of collections an object must survive before
// it is promoted to the mature space, after which it never moves again.
// Promotion is what lets the paper observe that "as the code reaches
// higher optimization levels and the GC moves these regions to the
// mature space, there is less need for any runtime work to be done to
// support our VIProf system" (§4.3): tenured code bodies drop out of
// the per-epoch partial code maps.
const MatureAge = 2

// Heap is a generational heap over a simulated address range: a pair of
// copying nursery semispaces plus a bump-only mature space that is
// never compacted (objects there have stable addresses for the rest of
// the run).
type Heap struct {
	base addr.Address
	size uint64
	half uint64 // nursery semispace size in bytes

	fromBase addr.Address // current nursery allocation space base
	toBase   addr.Address
	next     addr.Address // bump pointer in from-space

	matureBase  addr.Address
	matureNext  addr.Address
	matureLimit addr.Address

	objects []*Object // all live objects as of last collection + since
	roots   func() []*Object
	hooks   Hooks

	// Host storage recycled from the objects collections freed: zeroed
	// headers, and Refs/Scalars backing arrays bucketed by power-of-two
	// capacity (bucket k holds arrays of capacity >= 1<<k). Alloc draws
	// on them before making new ones, so host memory follows the live
	// simulated heap rather than the total allocated.
	freeObjs    []*Object
	freeRefs    [bits.UintSize][][]*Object
	freeScalars [bits.UintSize][][]int64
	markStack   []*Object // reused across collections

	epoch       int
	collections int
	allocated   uint64 // lifetime bytes allocated
	promoted    int    // lifetime objects tenured
	lastStats   CollectStats
}

// NewHeap creates a heap over [base, base+size): the first half is the
// mature space, the second half holds the two nursery semispaces.
// Collect reads the slice roots returns only while marking, so the
// provider may reuse one buffer across calls.
func NewHeap(base addr.Address, size uint64, roots func() []*Object, hooks Hooks) (*Heap, error) {
	if size < 8*1024 || size%4 != 0 {
		return nil, fmt.Errorf("gc: heap size %d too small or not divisible by 4", size)
	}
	half := size / 4
	h := &Heap{
		base:        base,
		size:        size,
		half:        half,
		matureBase:  base,
		matureNext:  base,
		matureLimit: base + addr.Address(size/2),
		fromBase:    base + addr.Address(size/2),
		toBase:      base + addr.Address(size/2+half),
		roots:       roots,
		hooks:       hooks,
	}
	h.next = h.fromBase
	return h, nil
}

// Bounds returns the full heap range [start, end) — mature space and
// both nursery semispaces. The VM registers this range with the runtime
// profiler so samples inside it are logged as JIT.App samples rather
// than anonymous.
func (h *Heap) Bounds() (start, end addr.Address) {
	return h.base, h.base + addr.Address(h.size)
}

// Mature reports whether the object lives in the (never-moving) mature
// space.
func (h *Heap) Mature(o *Object) bool {
	return o.Addr >= h.matureBase && o.Addr < h.matureLimit
}

// Promoted returns the lifetime count of tenured objects.
func (h *Heap) Promoted() int { return h.promoted }

// Epoch returns the current execution epoch (number of completed
// collections).
func (h *Heap) Epoch() int { return h.epoch }

// Collections returns the number of collections performed.
func (h *Heap) Collections() int { return h.collections }

// AllocatedBytes returns lifetime bytes allocated.
func (h *Heap) AllocatedBytes() uint64 { return h.allocated }

// LastStats returns statistics of the most recent collection.
func (h *Heap) LastStats() CollectStats { return h.lastStats }

// Used returns bytes currently consumed in the allocation semispace.
func (h *Heap) Used() uint64 { return uint64(h.next - h.fromBase) }

// Alloc allocates an object. sizeBytes is the payload size; the header
// is added internally and the total rounded up to 16 bytes. If the
// semispace is exhausted a collection runs first; if space is still
// insufficient, Alloc fails (OutOfMemoryError). The object's slots are
// all zero; its host storage may be a freed object's, recycled.
func (h *Heap) Alloc(kind Kind, sizeBytes uint32, nrefs, nscalars int) (*Object, error) {
	total := uint64(sizeBytes) + HeaderBytes
	total = (total + 15) &^ 15
	if h.Used()+total > h.half {
		h.Collect()
		if h.Used()+total > h.half {
			return nil, fmt.Errorf("gc: out of memory: need %d, %d free in %d semispace",
				total, h.half-h.Used(), h.half)
		}
	}
	var o *Object
	if n := len(h.freeObjs); n > 0 {
		o = h.freeObjs[n-1]
		h.freeObjs = h.freeObjs[:n-1]
	} else {
		o = new(Object)
	}
	o.Addr = h.next
	o.Size = uint32(total)
	o.Kind = kind
	o.Refs = take(&h.freeRefs, nrefs)
	o.Scalars = take(&h.freeScalars, nscalars)
	h.next += addr.Address(total)
	h.allocated += total
	h.objects = append(h.objects, o)
	if h.hooks.Work != nil {
		h.hooks.Work("alloc", 1)
	}
	return o, nil
}

// Collect performs a full semispace collection: trace from roots, copy
// live objects to the to-space (assigning new addresses in allocation
// order), flip spaces, and advance the epoch.
func (h *Heap) Collect() CollectStats {
	if h.hooks.PreGC != nil {
		h.hooks.PreGC(h.epoch)
	}
	var stats CollectStats

	// Mark phase: trace from roots.
	stack := h.markStack[:0]
	if h.roots != nil {
		for _, r := range h.roots() {
			if r != nil && !r.marked {
				r.marked = true
				stack = append(stack, r)
			}
		}
	}
	traced := 0
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		traced++
		for _, r := range o.Refs {
			if r != nil && !r.marked {
				r.marked = true
				stack = append(stack, r)
			}
		}
	}
	h.markStack = stack
	if h.hooks.Work != nil {
		h.hooks.Work("trace", traced+1)
	}

	// Copy phase: survivors either tenure into the mature space (at
	// MatureAge, if it has room) or copy to the to-space in allocation
	// order, which preserves rough locality as a real collector's
	// Cheney scan does. Mature objects stay put. A freed data or array
	// object's host storage is recycled; code objects are not, since
	// their jit.CodeBody (and the agent's moved-method tracking) may
	// still hold them.
	next := h.toBase
	live := h.objects[:0]
	for _, o := range h.objects {
		if !o.marked {
			stats.Freed++
			stats.FreedBytes += uint64(o.Size)
			if o.Kind != KindCode {
				h.recycle(o)
			}
			continue
		}
		o.marked = false
		stats.Live++
		stats.LiveBytes += uint64(o.Size)
		if h.Mature(o) {
			live = append(live, o)
			continue
		}
		old := o.Addr
		if o.age < MatureAge {
			o.age++
		}
		if o.age >= MatureAge && h.matureNext+addr.Address(o.Size) <= h.matureLimit {
			o.Addr = h.matureNext
			h.matureNext += addr.Address(o.Size)
			h.promoted++
		} else {
			o.Addr = next
			next += addr.Address(o.Size)
		}
		if o.Kind == KindCode && old != o.Addr {
			stats.CodeMoved++
			if h.hooks.Moved != nil {
				h.hooks.Moved(o, old)
			}
		}
		live = append(live, o)
	}
	// Drop the tail so freed objects become unreachable from the heap.
	for i := len(live); i < len(h.objects); i++ {
		h.objects[i] = nil
	}
	h.objects = live
	if h.hooks.Work != nil {
		h.hooks.Work("copy", int(stats.LiveBytes/64)+1)
	}

	// Flip.
	h.fromBase, h.toBase = h.toBase, h.fromBase
	h.next = next
	h.collections++
	h.epoch++
	h.lastStats = stats
	if h.hooks.PostGC != nil {
		h.hooks.PostGC(h.epoch, stats)
	}
	return stats
}

// recycle pools a freed object's host storage for Alloc to reuse. The
// header is zeroed, Meta, marked and age included, so a holder the
// collector did not know about finds no slots at address zero rather
// than the state of the object's next owner.
func (h *Heap) recycle(o *Object) {
	give(&h.freeRefs, o.Refs)
	give(&h.freeScalars, o.Scalars)
	*o = Object{}
	h.freeObjs = append(h.freeObjs, o)
}

// take returns a zeroed slice of length n (nil for n == 0), reusing a
// pooled backing array of capacity at least 1<<ceil(log2 n) when there
// is one.
func take[T any](pool *[bits.UintSize][][]T, n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	if m := len(pool[k]); m > 0 {
		s := pool[k][m-1][:n]
		pool[k] = pool[k][:m-1]
		clear(s)
		return s
	}
	return make([]T, n, 1<<k)
}

// give pools a freed backing array in the largest bucket its capacity
// serves.
func give[T any](pool *[bits.UintSize][][]T, s []T) {
	if c := cap(s); c > 0 {
		k := bits.Len(uint(c)) - 1
		pool[k] = append(pool[k], s)
	}
}

// LiveObjects returns the number of objects tracked (live as of the
// last collection, plus everything allocated since).
func (h *Heap) LiveObjects() int { return len(h.objects) }
