package cache

// Cross-core coherency model for the SMP machine: a single shared
// directory, at shared-L2-line granularity, remembering which core last
// wrote each line. A core whose L1 misses on a line last written by a
// *different* core pays a transfer penalty (the simplified cost of an
// invalidate + cache-to-cache forward) and raises one
// COHERENCY_TRANSFERS event. The transfer clears ownership: the line is
// now clean in the shared L2, so subsequent readers on any core pay
// nothing more until someone writes it again. This deliberately models
// only the first-order effect — write-invalidate traffic between
// private L1s — which is what per-core attribution needs to make
// cross-core costs visible; it is not a full MESI state machine.

import (
	"fmt"

	"viprof/internal/addr"
)

// Directory is the shared write-ownership map. One Directory is shared
// by all Hierarchies of an SMP machine (it lives logically beside the
// shared L2).
//
// Ownership is paged: each page holds owner+1 for dirPageLines
// consecutive lines (0 means no owner), and a one-entry cache remembers
// the last page touched, so the common run of accesses within one page
// costs no map lookup and a store to an already-paged line allocates
// nothing. An owner takes two bytes, so core ids must be below 65535,
// which no buildable machine reaches.
type Directory struct {
	lineBits  uint
	pages     map[uint64]*dirPage // line >> dirPageBits -> page
	lastKey   uint64
	last      *dirPage // pages[lastKey], or nil
	transfers uint64
}

const (
	dirPageBits  = 12
	dirPageLines = 1 << dirPageBits
)

type dirPage [dirPageLines]uint16

// NewDirectory returns an empty directory tracking ownership at the
// given line granularity (use the shared L2's line bits).
func NewDirectory(lineBits uint) *Directory {
	return &Directory{lineBits: lineBits, pages: make(map[uint64]*dirPage)}
}

// page returns the page holding line, allocating it if create is set;
// without create a missing page is nil.
func (d *Directory) page(line uint64, create bool) *dirPage {
	key := line >> dirPageBits
	if d.last != nil && d.lastKey == key {
		return d.last
	}
	p := d.pages[key]
	if p == nil {
		if !create {
			return nil
		}
		p = new(dirPage)
		d.pages[key] = p
	}
	d.last, d.lastKey = p, key
	return p
}

// MarkWrite records that core last wrote the line holding a.
func (d *Directory) MarkWrite(a addr.Address, core int) {
	if uint(core) >= 1<<16-1 {
		panic(fmt.Sprintf("cache: coherency directory: core id %d out of range", core))
	}
	line := uint64(a) >> d.lineBits
	d.page(line, true)[line&(dirPageLines-1)] = uint16(core + 1)
}

// Transfer reports whether an access to a by core hits a line last
// written by a different core. A true result IS the transfer: ownership
// clears (the line is forwarded and left clean in the shared level), so
// each write is charged to at most one remote reader — re-probing the
// same line after an L1 eviction does not pay again.
func (d *Directory) Transfer(a addr.Address, core int) bool {
	line := uint64(a) >> d.lineBits
	p := d.page(line, false)
	if p == nil {
		return false
	}
	own := &p[line&(dirPageLines-1)]
	if *own == 0 || int(*own)-1 == core {
		return false
	}
	*own = 0
	d.transfers++
	return true
}

// Transfers returns the lifetime cross-core transfer count.
func (d *Directory) Transfers() uint64 { return d.transfers }

// SharedHierarchies builds n per-core hierarchies for an SMP machine:
// each core gets a private L1, DTLB and ITLB with the default geometry,
// all cores share one L2 and one coherency directory. n == 1 yields a
// machine indistinguishable from DefaultHierarchy() in cost terms (the
// directory never fires with a single writer), but tests that want
// bit-for-bit identity with the pre-SMP model should keep using
// DefaultHierarchy, whose Coh field is nil and skips directory
// bookkeeping entirely.
func SharedHierarchies(n int) []*Hierarchy {
	l2, err := New(Config{Sets: 512, Ways: 8, LineBits: 7})
	if err != nil {
		panic(err)
	}
	dir := NewDirectory(l2.lineBits)
	hs := make([]*Hierarchy, n)
	for i := range hs {
		l1, err := New(Config{Sets: 32, Ways: 8, LineBits: 6})
		if err != nil {
			panic(err)
		}
		hs[i] = &Hierarchy{
			L1: l1, L2: l2, L1Hit: 0, L2Hit: 8, MemPenalty: 120,
			DTLB: newTLB(), ITLB: newTLB(), TLBPenalty: 30,
			Coh: dir, CoreID: i, CohPenalty: DefaultCohPenalty,
		}
	}
	return hs
}
