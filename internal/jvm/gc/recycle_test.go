package gc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"viprof/internal/addr"
)

// freshHeap is the collector before host-storage recycling: Alloc makes
// every object and slot array new, and Collect drops what it frees.
// Kept as the differential oracle for the recycling Heap.
type freshHeap struct {
	half                              uint64
	fromBase, toBase, next            addr.Address
	matureBase, matureNext, matureLim addr.Address
	objects                           []*Object
	roots                             func() []*Object
	hooks                             Hooks
	epoch                             int
}

func newFreshHeap(base addr.Address, size uint64, roots func() []*Object, hooks Hooks) *freshHeap {
	half := size / 4
	h := &freshHeap{
		half:       half,
		matureBase: base,
		matureNext: base,
		matureLim:  base + addr.Address(size/2),
		fromBase:   base + addr.Address(size/2),
		toBase:     base + addr.Address(size/2+half),
		roots:      roots,
		hooks:      hooks,
	}
	h.next = h.fromBase
	return h
}

func (h *freshHeap) used() uint64 { return uint64(h.next - h.fromBase) }

func (h *freshHeap) Alloc(kind Kind, sizeBytes uint32, nrefs, nscalars int) (*Object, error) {
	total := uint64(sizeBytes) + HeaderBytes
	total = (total + 15) &^ 15
	if h.used()+total > h.half {
		h.Collect()
		if h.used()+total > h.half {
			return nil, fmt.Errorf("gc: out of memory: need %d, %d free in %d semispace",
				total, h.half-h.used(), h.half)
		}
	}
	o := &Object{Addr: h.next, Size: uint32(total), Kind: kind}
	if nrefs > 0 {
		o.Refs = make([]*Object, nrefs)
	}
	if nscalars > 0 {
		o.Scalars = make([]int64, nscalars)
	}
	h.next += addr.Address(total)
	h.objects = append(h.objects, o)
	if h.hooks.Work != nil {
		h.hooks.Work("alloc", 1)
	}
	return o, nil
}

func (h *freshHeap) Collect() CollectStats {
	if h.hooks.PreGC != nil {
		h.hooks.PreGC(h.epoch)
	}
	var stats CollectStats
	var stack []*Object
	for _, r := range h.roots() {
		if r != nil && !r.marked {
			r.marked = true
			stack = append(stack, r)
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
	if h.hooks.Work != nil {
		h.hooks.Work("trace", traced+1)
	}
	next := h.toBase
	var live []*Object
	for _, o := range h.objects {
		if !o.marked {
			stats.Freed++
			stats.FreedBytes += uint64(o.Size)
			continue
		}
		o.marked = false
		stats.Live++
		stats.LiveBytes += uint64(o.Size)
		if o.Addr >= h.matureBase && o.Addr < h.matureLim {
			live = append(live, o)
			continue
		}
		old := o.Addr
		if o.age < MatureAge {
			o.age++
		}
		if o.age >= MatureAge && h.matureNext+addr.Address(o.Size) <= h.matureLim {
			o.Addr = h.matureNext
			h.matureNext += addr.Address(o.Size)
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
	h.objects = live
	if h.hooks.Work != nil {
		h.hooks.Work("copy", int(stats.LiveBytes/64)+1)
	}
	h.fromBase, h.toBase = h.toBase, h.fromBase
	h.next = next
	h.epoch++
	if h.hooks.PostGC != nil {
		h.hooks.PostGC(h.epoch, stats)
	}
	return stats
}

// twin is one simulated object as both heaps hold it.
type twin struct {
	got, want *Object
}

// hookLog records every hook call a heap makes, with objects named by
// their twin index so the two heaps' logs compare directly.
type hookLog struct {
	calls []string
	index map[*Object]int
}

func (l *hookLog) hooks() Hooks {
	return Hooks{
		PreGC: func(epoch int) { l.calls = append(l.calls, fmt.Sprintf("pre %d", epoch)) },
		Moved: func(o *Object, old addr.Address) {
			l.calls = append(l.calls, fmt.Sprintf("moved #%d %s->%s", l.index[o], old, o.Addr))
		},
		PostGC: func(epoch int, s CollectStats) { l.calls = append(l.calls, fmt.Sprintf("post %d %+v", epoch, s)) },
		Work:   func(phase string, units int) { l.calls = append(l.calls, fmt.Sprintf("work %s %d", phase, units)) },
	}
}

// The recycling heap is indistinguishable from the allocate-fresh
// oracle: over seeded random alloc/mutate/collect sequences with random
// root sets it assigns the same addresses, sizes, kinds and epochs,
// reports the same CollectStats and hook calls, hands out all-zero
// slots even from dirtied storage, leaves live payloads alone, zeroes
// what it frees, and never reuses a code object.
func TestRecyclingMatchesFreshOracle(t *testing.T) {
	reused := 0
	for seed := int64(0); seed < 30; seed++ {
		reused += runRecyclingOracle(t, seed)
	}
	if reused == 0 {
		t.Fatal("no object storage was ever reused; the test exercises nothing")
	}
	t.Logf("%d allocations reused freed storage", reused)
}

func runRecyclingOracle(t *testing.T, seed int64) (reused int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []twin  // every object still valid to touch: survivors + allocated since
	var roots []twin // a subset of live; collections keep all of it
	gotRoots := func() []*Object {
		out := make([]*Object, len(roots))
		for i, r := range roots {
			out[i] = r.got
		}
		return out
	}
	wantRoots := func() []*Object {
		out := make([]*Object, len(roots))
		for i, r := range roots {
			out[i] = r.want
		}
		return out
	}
	gotLog := &hookLog{index: map[*Object]int{}}
	wantLog := &hookLog{index: map[*Object]int{}}
	got, err := NewHeap(testBase, 1<<16, gotRoots, gotLog.hooks())
	if err != nil {
		t.Fatal(err)
	}
	want := newFreshHeap(testBase, 1<<16, wantRoots, wantLog.hooks())

	seen := map[*Object]bool{} // every object got ever handed out
	code := map[*Object]int{}  // got's code objects, with their Meta tag

	collect := func(step int) {
		gs, ws := got.Collect(), want.Collect()
		if gs != ws {
			t.Fatalf("seed %d step %d: CollectStats %+v, oracle %+v", seed, step, gs, ws)
		}
		live = survivors(t, seed, step, live, want.objects, nil)
	}

	for step := 0; step < 600; step++ {
		switch r := rng.Intn(20); {
		case r == 0:
			collect(step)
		case r == 1:
			// Draw a new root set from the live objects.
			roots = roots[:0]
			for _, tw := range live {
				if rng.Intn(3) == 0 {
					roots = append(roots, tw)
				}
			}
		case r < 8 && len(live) > 0:
			// Dirty a live object: scalar payload and references to
			// other live objects, identically in both heaps.
			tw := live[rng.Intn(len(live))]
			for i := range tw.want.Scalars {
				v := rng.Int63()
				tw.got.Scalars[i], tw.want.Scalars[i] = v, v
			}
			for i := range tw.want.Refs {
				if rng.Intn(2) == 0 {
					to := live[rng.Intn(len(live))]
					tw.got.Refs[i], tw.want.Refs[i] = to.got, to.want
				}
			}
		default:
			kind := Kind(rng.Intn(3))
			nrefs, nscalars := rng.Intn(40), rng.Intn(40)
			if kind == KindCode {
				nrefs, nscalars = 0, 0
			}
			size := uint32(8*(nrefs+nscalars) + rng.Intn(64))
			epoch := want.epoch
			g, gerr := got.Alloc(kind, size, nrefs, nscalars)
			w, werr := want.Alloc(kind, size, nrefs, nscalars)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("seed %d step %d: Alloc error %v, oracle %v", seed, step, gerr, werr)
			}
			if werr != nil {
				// Out of memory: nothing was handed out, but the
				// collection Alloc ran first has freed what it could.
				live = survivors(t, seed, step, live, want.objects, nil)
				continue
			}
			if want.epoch != epoch {
				// Alloc collected first: only the survivors remain.
				live = survivors(t, seed, step, live, want.objects[:len(want.objects)-1], g)
			}
			if g.Addr != w.Addr || g.Size != w.Size || g.Kind != w.Kind || got.Epoch() != want.epoch {
				t.Fatalf("seed %d step %d: allocated %s/%d/kind %d epoch %d, oracle %s/%d/kind %d epoch %d",
					seed, step, g.Addr, g.Size, g.Kind, got.Epoch(), w.Addr, w.Size, w.Kind, want.epoch)
			}
			if len(g.Refs) != nrefs || len(g.Scalars) != nscalars || (nrefs == 0) != (g.Refs == nil) || (nscalars == 0) != (g.Scalars == nil) {
				t.Fatalf("seed %d step %d: slots %d/%d (nil %v/%v), want %d/%d",
					seed, step, len(g.Refs), len(g.Scalars), g.Refs == nil, g.Scalars == nil, nrefs, nscalars)
			}
			for _, r := range g.Refs {
				if r != nil {
					t.Fatalf("seed %d step %d: new object has a non-nil ref", seed, step)
				}
			}
			for _, v := range g.Scalars {
				if v != 0 {
					t.Fatalf("seed %d step %d: new object has scalar %d", seed, step, v)
				}
			}
			if g.Meta != nil || g.Age() != 0 || g.marked {
				t.Fatalf("seed %d step %d: new object carries Meta %v, age %d, marked %v", seed, step, g.Meta, g.Age(), g.marked)
			}
			if _, ok := code[g]; ok {
				t.Fatalf("seed %d step %d: a code object's storage was reused", seed, step)
			}
			if seen[g] {
				reused++
			}
			seen[g] = true
			if kind == KindCode {
				tag := len(code)
				g.Meta, w.Meta = tag, tag
				code[g] = tag
				gotLog.index[g], wantLog.index[w] = tag, tag
			}
			live = append(live, twin{g, w})
		}
	}
	collect(600)
	if !reflect.DeepEqual(gotLog.calls, wantLog.calls) {
		t.Fatalf("seed %d: hook calls differ:\n got %v\nwant %v", seed, gotLog.calls, wantLog.calls)
	}
	// A freed code object keeps its Meta for the jit.CodeBody and agent
	// that still name it.
	for o, tag := range code {
		if o.Meta != tag || o.Kind != KindCode {
			t.Fatalf("seed %d: code object lost its identity: %+v", seed, o)
		}
	}
	return reused
}

// survivors narrows live to the twins the oracle still tracks (all of
// them, unless a collection ran) and checks each survivor in the
// recycling heap: same address, same payload, references to the same
// twins. Every twin that did not survive must be zeroed in the
// recycling heap, unless it is a code object or already handed out
// again as fresh.
func survivors(t *testing.T, seed int64, step int, live []twin, tracked []*Object, fresh *Object) []twin {
	t.Helper()
	keep := make(map[*Object]bool, len(tracked))
	for _, o := range tracked {
		keep[o] = true
	}
	twinOf := make(map[*Object]*Object, len(live))
	for _, tw := range live {
		twinOf[tw.want] = tw.got
	}
	out := live[:0]
	var freed []*Object
	for _, tw := range live {
		if !keep[tw.want] {
			freed = append(freed, tw.got)
			continue
		}
		g, w := tw.got, tw.want
		if g.Addr != w.Addr || g.Size != w.Size || g.Age() != w.Age() {
			t.Fatalf("seed %d step %d: survivor at %s/%d age %d, oracle %s/%d age %d",
				seed, step, g.Addr, g.Size, g.Age(), w.Addr, w.Size, w.Age())
		}
		if !reflect.DeepEqual(g.Scalars, w.Scalars) {
			t.Fatalf("seed %d step %d: survivor payload changed", seed, step)
		}
		for i, r := range w.Refs {
			if r == nil && g.Refs[i] != nil || r != nil && twinOf[r] != g.Refs[i] {
				t.Fatalf("seed %d step %d: survivor ref %d changed", seed, step, i)
			}
		}
		out = append(out, tw)
	}
	for _, o := range freed {
		if o != fresh && o.Kind != KindCode && !reflect.DeepEqual(*o, Object{}) {
			t.Fatalf("seed %d step %d: freed object not zeroed: %+v", seed, step, *o)
		}
	}
	return out
}

// heapCycleBytes reports the mean host bytes one alloc->collect cycle
// costs in steady state. Each cycle allocates n objects of a fixed mix
// of shapes (data objects, scalar and ref arrays up to 64 elements),
// hangs every fourth from a rooted holder, and collects, so the
// previous cycle's objects all die.
func heapCycleBytes(t *testing.T, n, cycles int) uint64 {
	t.Helper()
	var holder *Object
	h := newTestHeap(t, 8<<20, func() []*Object { return []*Object{holder} }, Hooks{})
	holder, _ = h.Alloc(KindArray, uint32(8*n), n, 0)
	cycle := func() {
		for i := 0; i < n; i++ {
			var o *Object
			var err error
			switch i % 3 {
			case 0:
				o, err = h.Alloc(KindData, uint32(8*(i%5+i%7)), i%5, i%7)
			case 1:
				o, err = h.Alloc(KindArray, uint32(8*(i%64)), 0, i%64)
			default:
				o, err = h.Alloc(KindArray, uint32(8*(i%33)), i%33, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				holder.Refs[i] = o
			}
		}
		h.Collect()
	}
	for i := 0; i < 3; i++ {
		cycle() // warm-up: the pools reach their steady size
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(cycles)
}

// In steady state a collection cycle costs bounded host bytes however
// many objects it allocates: Alloc draws every header and slot array
// from the storage the previous collection freed.
func TestHeapSteadyStateAllocBudget(t *testing.T) {
	const budget = 1024
	for _, n := range []int{100, 2000} {
		got := heapCycleBytes(t, n, 20)
		if got > budget {
			t.Errorf("%d objects per cycle: %d host bytes per cycle, budget %d", n, got, budget)
		}
		t.Logf("%d objects per cycle: %d host bytes per cycle", n, got)
	}
}
