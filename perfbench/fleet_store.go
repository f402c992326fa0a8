package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"viprof"
	"viprof/internal/fleet"
	"viprof/internal/harness"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// fleet-store: synthetic hosts ship epoch code maps, then sample deltas,
// over a fault-free simulated network to a multi-process collector with
// online compaction; the store is then replayed cold and queried over a
// fixed set of narrow time windows, each from a cold open of the
// archived store to rendered rows, as vipreport -fleet -window does.
// No VM runs: all host time goes to the fleet path.

const (
	fleetCores        = 4
	fleetCompactEvery = 400_000
	fleetQueries      = 4  // narrow windows queried per iteration
	fleetWidth        = 16 // each window is 1/fleetWidth of the store's time span
	fleetPartition    = 16 // disjoint windows the sum check folds
	fleetRows         = 30 // vipreport's default row limit
)

type fleetState struct {
	seed    int64
	cfg     fleet.FleetConfig
	workdir string
	iter    int
	// lo, hi bound the store's sample times (hi exclusive), fixed at
	// set-up by a reference ingest; windows are the queried ranges.
	lo, hi  uint64
	windows [][2]uint64
}

// setupFleetStore configures the fleet and runs one reference ingest
// that fixes the store's time span and with it the window list.
func setupFleetStore(cfg config) (state, error) {
	hosts, deltas := 16, 120
	if cfg.short {
		hosts, deltas = 4, 20
	}
	s := &fleetState{
		seed:    cfg.seed,
		workdir: cfg.workdir,
		cfg: fleet.FleetConfig{
			Hosts:         hosts,
			DeltasPerHost: deltas,
			Seed:          cfg.seed,
			Collector:     fleet.CollectorConfig{CompactEveryCycles: fleetCompactEvery},
		},
	}
	r, err := fleet.RunFleet(harness.BuildMachine(fleetCores, s.seed), s.cfg)
	if err != nil {
		return nil, err
	}
	if r.RunErr != nil {
		return nil, r.RunErr
	}
	lo, hi, ok := r.Collector.Aggregate().TimeBounds()
	if !ok {
		return nil, fmt.Errorf("reference ingest stored no samples")
	}
	s.lo, s.hi = lo, hi+1
	width := max((s.hi-s.lo)/fleetWidth, 1)
	for i := uint64(0); i < fleetQueries; i++ {
		// Centred in each quarter of the span.
		from := s.lo + (2*i+1)*(s.hi-s.lo)/(2*fleetQueries) - width/2
		s.windows = append(s.windows, [2]uint64{from, from + width})
	}
	return s, nil
}

func (s *fleetState) close() {}

// renderedTotal reads the sample total off RenderWindow's header line.
var renderedTotal = regexp.MustCompile(`^fleet aggregate: (\d+) samples`)

func (s *fleetState) iterate(t *tracer) (*iterOut, error) {
	out := &iterOut{layer: make(map[string]float64), human: make(map[string]float64)}
	s.iter++
	dir := filepath.Join(s.workdir, fmt.Sprintf("fleet-%d", s.iter))
	defer os.RemoveAll(dir)

	start := now()
	sp := t.begin("harness.BuildMachine")
	m := harness.BuildMachine(fleetCores, s.seed)
	t.end(sp)
	ingestStart := now()
	sp = t.begin("fleet.RunFleet")
	r, err := fleet.RunFleet(m, s.cfg)
	t.end(sp)
	ingest := since(ingestStart)
	if err != nil {
		return nil, err
	}
	if r.RunErr != nil {
		return nil, r.RunErr
	}
	disk := m.Kern.Disk()
	sp = t.begin("kernel.Disk.DumpTo")
	err = disk.DumpTo(dir)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	out.write = since(start)

	readStart := now()
	sp = t.begin("fleet.LoadStore")
	replayed, rep, err := fleet.LoadStore(disk, 0)
	t.end(sp)
	replay := since(readStart)
	if err != nil {
		return nil, err
	}
	rendered := make([]string, len(s.windows))
	for i, w := range s.windows {
		q := now()
		sp = t.begin("viprof.LoadFleetArchive")
		v, err := viprof.LoadFleetArchive(dir)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.begin("viprof.FleetView.RenderWindow")
		rendered[i] = v.RenderWindow(fleetRows, w[0], w[1])
		t.end(sp)
		out.queries = append(out.queries, since(q))
	}
	out.read = since(readStart)

	// Conservation on the live and the replayed aggregate, complete map
	// replication, a clean integrity verdict, disjoint windows that sum
	// to the total, and rendered windows that agree with the fold.
	live := r.Collector.Aggregate()
	for _, c := range []struct {
		name string
		agg  *fleet.Aggregate
	}{{"live", live}, {"replayed", replayed}} {
		if cons := fleet.CheckConservation(r.Senders, c.agg); !cons.Balanced() {
			return nil, fmt.Errorf("%s aggregate unbalanced: %v", c.name, cons.Mismatches)
		}
		if bad := fleet.CheckMapReplication(r.Senders, c.agg); len(bad) > 0 {
			return nil, fmt.Errorf("%s aggregate map replication violated: %v", c.name, bad)
		}
	}
	if r.Integrity.Degraded() {
		return nil, fmt.Errorf("fault-free fleet run degraded")
	}
	if lo, hi, _ := replayed.TimeBounds(); lo != s.lo || hi+1 != s.hi {
		return nil, fmt.Errorf("store spans [%d, %d], reference [%d, %d)", lo, hi, s.lo, s.hi)
	}
	var partSum uint64
	step := (s.hi - s.lo + fleetPartition - 1) / fleetPartition
	for from := s.lo; from < s.hi; from += step {
		partSum += sumCounts(replayed.QueryWindow(from, min(from+step, s.hi)))
	}
	if partSum != replayed.Total() || live.Total() != replayed.Total() {
		return nil, fmt.Errorf("disjoint windows sum to %d, replayed total %d, live total %d", partSum, replayed.Total(), live.Total())
	}
	for i, txt := range rendered {
		mm := renderedTotal.FindStringSubmatch(txt)
		if mm == nil {
			return nil, fmt.Errorf("window %d: no total in rendered output", i)
		}
		n, _ := strconv.ParseUint(mm[1], 10, 64)
		if want := sumCounts(replayed.QueryWindow(s.windows[i][0], s.windows[i][1])); n != want {
			return nil, fmt.Errorf("window %d renders %d samples, fold says %d", i, n, want)
		}
	}

	st := r.Collector.Stats()
	var retries uint64
	for _, snd := range r.Senders {
		retries += snd.Stats().Retries
	}
	d := newDigest()
	sim := map[string]float64{
		"fleet.ingested":       float64(st.Ingested),
		"fleet.duplicates":     float64(st.Duplicates),
		"fleet.acks":           float64(st.AcksSent),
		"fleet.sender_retries": float64(retries),
		"fleet.journal_frames": float64(rep.Deltas + rep.Maps + rep.Duplicates),
		"fleet.compactions":    float64(st.Compactions),
		"fleet.gen_files":      float64(rep.GenFiles),
		"fleet.gen_frames":     float64(rep.GenFrames),
		"fleet.store_kb":       float64(storeBytes(disk)) / 1024,
	}
	for i, c := range m.Cores {
		d.num(fmt.Sprintf("cpu%d.cycles", i), float64(c.Cycles()))
	}
	for _, k := range sortedKeys(sim) {
		d.num(k, sim[k])
		out.layer[k] = sim[k]
	}
	d.counts("live", live.Counts())
	d.counts("replayed", replayed.Counts())
	for i, txt := range rendered {
		d.text(fmt.Sprintf("window%d", i), txt)
	}
	out.digest = d.sum()

	out.human["ingest_ksamples_per_s"] = float64(live.Total()) / 1e3 / ingest.wall.Seconds()
	out.human["replay_s"] = replay.wall.Seconds()

	if t.on {
		sp = t.begin("probe")
		err := probeFleet(t, disk, replayed, s.windows, out.layer)
		t.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func sumCounts(m map[oprofile.Key]uint64) uint64 {
	var n uint64
	for _, c := range m {
		n += c
	}
	return n
}

// storeFiles lists the durable store: shard journals and compacted
// generation files.
func storeFiles(disk *kernel.Disk) []string {
	var files []string
	for _, p := range disk.List() {
		if strings.HasPrefix(p, fleet.JournalPrefix) || (strings.HasPrefix(p, fleet.GenDir+"/g") && strings.HasSuffix(p, ".samples")) {
			files = append(files, p)
		}
	}
	return files
}

func storeBytes(disk *kernel.Disk) int {
	total := 0
	for _, p := range storeFiles(disk) {
		n, _ := disk.Size(p)
		total += n
	}
	return total
}

// probeFleet times the store layers separately: record framing and
// payload decode over every store frame, the windowed fold on the
// loaded aggregate, and one offline compaction pass.
func probeFleet(t *tracer, disk *kernel.Disk, agg *fleet.Aggregate, windows [][2]uint64, layer map[string]float64) error {
	var payloads [][]byte
	for _, p := range storeFiles(disk) {
		data, err := disk.Read(p)
		if err != nil {
			return err
		}
		sp := t.begin("record.Scan")
		recs, _ := record.Scan(data)
		t.end(sp)
		payloads = append(payloads, recs...)
	}
	sp := t.begin("fleet.DecodePayload")
	for _, p := range payloads {
		fleet.DecodePayload(p) // restart markers and map frames decode too; errors are not expected but not the point
	}
	t.end(sp)
	layer["fleet.decoded_frames"] = float64(len(payloads))
	for _, w := range windows {
		sp = t.begin("fleet.Aggregate.QueryWindow")
		agg.QueryWindow(w[0], w[1])
		t.end(sp)
	}
	sp = t.begin("fleet.CompactDisk")
	_, err := fleet.CompactDisk(disk)
	t.end(sp)
	return err
}
