package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"sort"
	"strconv"

	"viprof/internal/oprofile"
)

// digest hashes the simulated outputs of one iteration: rendered
// reports, cycle and NMI counts, fleet aggregate counts. Host timings
// never enter it, so any host-only change leaves it unchanged.
type digest struct {
	h hash.Hash
}

func newDigest() *digest { return &digest{h: sha256.New()} }

// text adds a labelled block of rendered output.
func (d *digest) text(label, s string) {
	fmt.Fprintf(d.h, "%s %d\n%s\n", label, len(s), s)
}

// num adds a labelled simulated counter.
func (d *digest) num(label string, v float64) {
	fmt.Fprintf(d.h, "%s=%s\n", label, strconv.FormatFloat(v, 'g', -1, 64))
}

// counts adds a sample-count map in sorted key order.
func (d *digest) counts(label string, m map[oprofile.Key]uint64) {
	lines := make([]string, 0, len(m))
	for k, c := range m {
		lines = append(lines, fmt.Sprintf("%d|%s|%s|%t|%d|%d|%x=%d", k.Event, k.Image, k.Proc, k.JIT, k.Epoch, k.CPU, uint64(k.Off), c))
	}
	sort.Strings(lines)
	fmt.Fprintf(d.h, "%s %d\n", label, len(lines))
	for _, l := range lines {
		fmt.Fprintln(d.h, l)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// pinFile is the pinned-digest table (pins.json): for each size
// ("full" or "short"), workload and seed, the digest every iteration
// must reproduce. Seeds without an entry — the held-out seed the file
// names among them — are checked for determinism only: every iteration
// of the run, traced or not, must agree with the first.
type pinFile struct {
	Digests map[string]map[string]map[string]string `json:"digests"`
}

func loadPins(path string) (*pinFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p pinFile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &p, nil
}

// pinned returns the pinned digest for (size, workload, seed), if any.
func (p *pinFile) pinned(size, workload string, seed int64) (string, bool) {
	d, ok := p.Digests[size][workload][strconv.FormatInt(seed, 10)]
	return d, ok
}
