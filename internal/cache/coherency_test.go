package cache

import (
	"math/rand"
	"testing"

	"viprof/internal/addr"
)

// mapDirectory is the map-backed Directory the paged one replaced,
// kept as the differential oracle.
type mapDirectory struct {
	lineBits  uint
	owner     map[uint64]int
	transfers uint64
}

func (d *mapDirectory) MarkWrite(a addr.Address, core int) {
	d.owner[uint64(a)>>d.lineBits] = core
}

func (d *mapDirectory) Transfer(a addr.Address, core int) bool {
	line := uint64(a) >> d.lineBits
	own, ok := d.owner[line]
	if !ok || own == core {
		return false
	}
	delete(d.owner, line)
	d.transfers++
	return true
}

// The paged directory answers every MarkWrite/Transfer sequence exactly
// as the map did, on 1-8 cores, with addresses clustered around page
// boundaries, scattered at random, and at the top of the address space.
func TestDirectoryMatchesMapOracle(t *testing.T) {
	const lineBits = 7
	pageBytes := uint64(dirPageLines) << lineBits
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cores := 1 + rng.Intn(8)
		got := NewDirectory(lineBits)
		want := &mapDirectory{lineBits: lineBits, owner: make(map[uint64]int)}
		// A small pool of hot addresses makes writes and reads collide.
		pool := make([]addr.Address, 64)
		for i := range pool {
			switch rng.Intn(4) {
			case 0: // either side of a page boundary
				edge := pageBytes * uint64(1+rng.Intn(6))
				pool[i] = addr.Address(edge + uint64(rng.Intn(512)) - 256)
			case 1: // the last pages of the address space
				pool[i] = addr.Address(^uint64(0) - uint64(rng.Intn(int(2*pageBytes))))
			case 2: // anywhere
				pool[i] = addr.Address(rng.Uint64())
			default: // a dense run of lines inside one page
				pool[i] = addr.Address(0x6000_0000 + uint64(rng.Intn(64))<<lineBits)
			}
		}
		for step := 0; step < 4000; step++ {
			a := pool[rng.Intn(len(pool))] + addr.Address(rng.Intn(1<<lineBits))
			core := rng.Intn(cores)
			if rng.Intn(3) == 0 {
				got.MarkWrite(a, core)
				want.MarkWrite(a, core)
				continue
			}
			if g, w := got.Transfer(a, core), want.Transfer(a, core); g != w {
				t.Fatalf("seed %d step %d: Transfer(%#x, core %d) = %v, oracle %v", seed, step, uint64(a), core, g, w)
			}
		}
		if got.Transfers() != want.transfers {
			t.Fatalf("seed %d: Transfers() = %d, oracle %d", seed, got.Transfers(), want.transfers)
		}
		if want.transfers == 0 && cores > 1 {
			t.Fatalf("seed %d: no transfers on %d cores; the test exercises nothing", seed, cores)
		}
	}
}

// Directory growth allocates per page, not per line: filling four
// pages line by line costs the pages and the map that holds them.
func TestDirectoryAllocsPerPage(t *testing.T) {
	const lineBits, pages = 7, 4
	allocs := testing.AllocsPerRun(20, func() {
		d := NewDirectory(lineBits)
		for line := 0; line < pages*dirPageLines; line++ {
			d.MarkWrite(addr.Address(line)<<lineBits, line%4)
		}
	})
	if budget := float64(pages + 4); allocs > budget {
		t.Errorf("filling %d pages (%d lines): %v allocations, budget %v", pages, pages*dirPageLines, allocs, budget)
	}
}
