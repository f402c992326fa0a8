package fleet

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

func newTestMachine(seed int64) *kernel.Machine {
	return kernel.NewMachine(cpu.New(hpc.NewBank(), cache.DefaultHierarchy()), seed)
}

func randomCounts(rng *rand.Rand, host, n int) map[oprofile.Key]uint64 {
	counts := make(map[oprofile.Key]uint64)
	images := []string{"fleet.app", "libfleet.so", "vmlinux"}
	for i := 0; i < n; i++ {
		k := oprofile.Key{
			Event: hpc.Event(rng.Intn(2)),
			Image: images[rng.Intn(len(images))],
			Proc:  SenderConfig{Host: host}.ProcName(),
			Off:   addr.Address(0x1000 + 8*rng.Intn(64)),
		}
		if rng.Intn(4) == 0 {
			k.Image = oprofile.JITImageName
			k.JIT = true
			k.Epoch = 1 + rng.Intn(3)
		}
		counts[k] += uint64(1 + rng.Intn(5))
	}
	return counts
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := randomCounts(rng, 3, 6)
	frame, err := DeltaFrame(3, 41, 7500, counts)
	if err != nil {
		t.Fatalf("DeltaFrame: %v", err)
	}
	msg, err := DecodeWire(frame)
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if msg.Kind != KindDelta || msg.Host != 3 || msg.Seq != 41 || msg.At != 7500 {
		t.Fatalf("header mismatch: %+v", msg)
	}
	if len(msg.Counts) != len(counts) {
		t.Fatalf("counts: got %d keys, want %d", len(msg.Counts), len(counts))
	}
	for k, c := range counts {
		if msg.Counts[k] != c {
			t.Errorf("key %+v: got %d want %d", k, msg.Counts[k], c)
		}
	}

	ack, err := DecodeWire(AckFrame(3, 41))
	if err != nil || ack.Kind != KindAck || ack.Host != 3 || ack.Seq != 41 {
		t.Fatalf("ack round trip: %+v, %v", ack, err)
	}
	rm, err := DecodeWire(RestartJournalFrame(1, 2))
	if err != nil || rm.Kind != KindRestart || rm.Shard != 1 || rm.Attempt != 2 {
		t.Fatalf("restart round trip: %+v, %v", rm, err)
	}

	// Determinism: the same delta must serialize to identical bytes.
	again, err := DeltaFrame(3, 41, 7500, counts)
	if err != nil || !bytes.Equal(frame, again) {
		t.Fatalf("DeltaFrame not deterministic")
	}
}

// goldenDelta is one wire delta payload as DeltaFrame writes it: a
// header and 23 sample lines, over three file images and JIT code in
// three epochs.
const goldenDelta = "#delta host=3 seq=41 at=7500\n" +
	"0\t1\t1\t4288\t2\t0\thost03\tJIT.App\n" +
	"0\t1\t1\t4400\t4\t0\thost03\tJIT.App\n" +
	"0\t0\t0\t4200\t5\t0\thost03\tfleet.app\n" +
	"0\t0\t0\t4408\t2\t0\thost03\tfleet.app\n" +
	"0\t0\t0\t4424\t2\t0\thost03\tfleet.app\n" +
	"0\t0\t0\t4456\t3\t0\thost03\tfleet.app\n" +
	"0\t0\t0\t4496\t2\t0\thost03\tfleet.app\n" +
	"0\t0\t0\t4504\t1\t0\thost03\tfleet.app\n" +
	"0\t0\t0\t4104\t4\t0\thost03\tlibfleet.so\n" +
	"0\t0\t0\t4360\t3\t0\thost03\tlibfleet.so\n" +
	"0\t0\t0\t4368\t3\t0\thost03\tvmlinux\n" +
	"0\t0\t0\t4528\t2\t0\thost03\tvmlinux\n" +
	"0\t0\t0\t4552\t5\t0\thost03\tvmlinux\n" +
	"0\t0\t0\t4560\t1\t0\thost03\tvmlinux\n" +
	"1\t1\t2\t4136\t1\t0\thost03\tJIT.App\n" +
	"1\t1\t2\t4456\t1\t0\thost03\tJIT.App\n" +
	"1\t1\t3\t4352\t4\t0\thost03\tJIT.App\n" +
	"1\t1\t3\t4544\t4\t0\thost03\tJIT.App\n" +
	"1\t0\t0\t4368\t3\t0\thost03\tfleet.app\n" +
	"1\t0\t0\t4568\t1\t0\thost03\tlibfleet.so\n" +
	"1\t0\t0\t4128\t1\t0\thost03\tvmlinux\n" +
	"1\t0\t0\t4136\t7\t0\thost03\tvmlinux\n" +
	"1\t0\t0\t4496\t1\t0\thost03\tvmlinux\n"

// Decoding a delta allocates O(its size): within 16 bytes per payload
// byte plus 8 KiB, the decoded counts map included. Re-encoding the
// decoded delta reproduces the golden bytes.
func TestDecodePayloadAllocBudget(t *testing.T) {
	payload := []byte(goldenDelta)
	msg, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := DeltaFrame(msg.Host, msg.Seq, msg.At, msg.Counts)
	if err != nil || !bytes.Equal(frame, record.Frame(payload)) {
		t.Fatalf("delta does not re-encode to the golden bytes (%v)", err)
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	if budget := uint64(16*len(payload) + 8<<10); got > budget {
		t.Errorf("DecodePayload allocates %d B per %d-byte delta, budget %d", got, len(payload), budget)
	}
	t.Logf("DecodePayload: %d B per %d-byte delta", got, len(payload))
}

func TestWireRejectsDamage(t *testing.T) {
	frame, err := DeltaFrame(1, 1, 0, map[oprofile.Key]uint64{{Proc: "host01", Image: "x"}: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Bit damage anywhere in the frame must fail the checksum.
	for _, idx := range []int{0, 8, len(frame) / 2, len(frame) - 1} {
		mangled := append([]byte(nil), frame...)
		mangled[idx] ^= 0x40
		if _, err := DecodeWire(mangled); err == nil {
			t.Errorf("mangled byte %d: decode succeeded", idx)
		}
	}
	// A torn (truncated) frame must fail too.
	for _, cut := range []int{1, len(frame) / 3, len(frame) - 1} {
		if _, err := DecodeWire(frame[:cut]); err == nil {
			t.Errorf("torn at %d: decode succeeded", cut)
		}
	}
	if _, err := DecodeWire(append(append([]byte(nil), frame...), frame...)); err == nil {
		t.Error("two concatenated records decoded as one wire datagram")
	}
}

// TestAggregateIdempotentOrderInsensitive is the idempotency quickcheck:
// any delivery schedule — shuffled, duplicated, interleaved across hosts
// — must produce exactly the oracle aggregate, with every duplicate
// absorbed and never double-counted.
func TestAggregateIdempotentOrderInsensitive(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(it)*0x9E3779B9 + 5))
		hosts := 1 + rng.Intn(5)
		oracle := make(map[oprofile.Key]uint64)
		var msgs []*WireMsg
		var oracleTotal uint64
		for h := 1; h <= hosts; h++ {
			deltas := 1 + rng.Intn(8)
			for seq := 1; seq <= deltas; seq++ {
				counts := randomCounts(rng, h, 1+rng.Intn(5))
				msgs = append(msgs, &WireMsg{Kind: KindDelta, Host: h, Seq: uint64(seq), Counts: counts})
				for k, c := range counts {
					oracle[k] += c
					oracleTotal += c
				}
			}
		}
		// Build a hostile delivery schedule: every message at least
		// once, many twice or more, then shuffle.
		schedule := append([]*WireMsg(nil), msgs...)
		for _, m := range msgs {
			for rng.Intn(2) == 0 {
				schedule = append(schedule, m)
			}
		}
		rng.Shuffle(len(schedule), func(i, j int) {
			schedule[i], schedule[j] = schedule[j], schedule[i]
		})

		agg := NewAggregate(1 + rng.Intn(8))
		for _, m := range schedule {
			agg.Apply(m)
		}
		if got := agg.Total(); got != oracleTotal {
			t.Fatalf("iter %d: total %d, oracle %d", it, got, oracleTotal)
		}
		got := agg.Counts()
		if len(got) != len(oracle) {
			t.Fatalf("iter %d: %d keys, oracle %d", it, len(got), len(oracle))
		}
		for k, c := range oracle {
			if got[k] != c {
				t.Fatalf("iter %d: key %+v: got %d, oracle %d", it, k, got[k], c)
			}
		}
		if wantDups := uint64(len(schedule) - len(msgs)); agg.Duplicates != wantDups {
			t.Fatalf("iter %d: absorbed %d duplicates, want %d", it, agg.Duplicates, wantDups)
		}
		for h := 1; h <= hosts; h++ {
			if gaps := agg.Gaps(h); len(gaps) != 0 {
				t.Fatalf("iter %d: host %d unexpected gaps %v", it, h, gaps)
			}
		}
	}
}

func TestAggregateGapsPoison(t *testing.T) {
	agg := NewAggregate(4)
	counts := map[oprofile.Key]uint64{{Proc: "host01", Image: "x", Off: 8}: 2}
	for _, seq := range []uint64{1, 2, 5} {
		agg.Apply(&WireMsg{Kind: KindDelta, Host: 1, Seq: seq, Counts: counts})
	}
	gaps := agg.Gaps(1)
	if len(gaps) != 2 || gaps[0] != 3 || gaps[1] != 4 {
		t.Fatalf("gaps = %v, want [3 4]", gaps)
	}
}

// requireConservation asserts the headline invariant on a finished run,
// against both the live aggregate and the offline journal replay.
func requireConservation(t testing.TB, res *FleetResult) {
	t.Helper()
	for name, agg := range map[string]*Aggregate{
		"live": res.Collector.Aggregate(), "replayed": res.Replayed,
	} {
		if agg == nil {
			t.Fatalf("%s aggregate missing", name)
		}
		c := CheckConservation(res.Senders, agg)
		if !c.Balanced() {
			t.Fatalf("%s conservation violated:\n%v", name, c.Mismatches)
		}
	}
}

func TestFleetCleanRun(t *testing.T) {
	m := newTestMachine(11)
	res, err := RunFleet(m, FleetConfig{Hosts: 4, DeltasPerHost: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	c := CheckConservation(res.Senders, res.Replayed)
	if c.HeldSamples != 0 {
		t.Fatalf("clean run held %d samples", c.HeldSamples)
	}
	if c.GeneratedSamples == 0 || c.AggregateSamples != c.GeneratedSamples {
		t.Fatalf("clean run: generated %d, aggregate %d", c.GeneratedSamples, c.AggregateSamples)
	}
	for _, s := range res.Senders {
		st := s.Stats()
		if !st.Clean || st.Timeouts != 0 || st.Spilled != 0 || st.Lost != 0 {
			t.Fatalf("host %d stats not clean: %+v", s.cfg.Host, st)
		}
	}
	if res.Integrity.Degraded() {
		t.Fatalf("clean run degraded:\n%s", FormatFleetIntegrity(res.Integrity))
	}
	// The committed snapshot must exist and agree with the aggregate.
	snap, sf, err := oprofile.ReadSampleFile(m.Kern.Disk(), AggregateFile)
	if sf.Missing || sf.Unreadable {
		t.Fatal("aggregate snapshot unreadable")
	}
	if err != nil || sf.Salvage.Lossy() {
		t.Fatalf("snapshot parse: %v, %+v", err, sf.Salvage)
	}
	var snapTotal uint64
	for _, cnt := range snap {
		snapTotal += cnt
	}
	if snapTotal != c.AggregateSamples {
		t.Fatalf("snapshot total %d != aggregate %d", snapTotal, c.AggregateSamples)
	}
}

// TestFleetPartitionHeal is the scripted partition e2e: a full-fleet
// partition long enough to force retries (but shorter than the retry
// budget) must heal with every delta delivered and zero degradation —
// destructive network faults fully absorbed by the protocol, with the
// timeouts as visible evidence.
func TestFleetPartitionHeal(t *testing.T) {
	m := newTestMachine(23)
	res, err := RunFleet(m, FleetConfig{
		Hosts: 4, DeltasPerHost: 6, Seed: 23,
		Net: NetFaultPlan{
			Seed:       23,
			Partitions: []Partition{{Host: PartitionAll, Start: 50_000, End: 2_200_000}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	if res.Net.PartitionDrops == 0 {
		t.Fatal("partition never dropped anything — window missed the traffic")
	}
	var timeouts, deferred uint64
	for _, s := range res.Senders {
		timeouts += s.Stats().Timeouts
		deferred += s.Stats().Deferred
	}
	if timeouts == 0 || deferred == 0 {
		t.Fatalf("partition left no retry evidence: timeouts=%d deferred=%d", timeouts, deferred)
	}
	c := CheckConservation(res.Senders, res.Replayed)
	if c.HeldSamples != 0 {
		t.Fatalf("heal incomplete: %d samples still held\n%s",
			c.HeldSamples, FormatFleetIntegrity(res.Integrity))
	}
	if res.Integrity.Degraded() {
		t.Fatalf("healed partition left degradation:\n%s", FormatFleetIntegrity(res.Integrity))
	}
}

// TestFleetPartitionSpillReingest drives a partition past the retry
// budget so hosts spill, then recovers the parked deltas offline:
// degradation is loud, per-event accounted, and fully reversible.
func TestFleetPartitionSpillReingest(t *testing.T) {
	m := newTestMachine(31)
	res, err := RunFleet(m, FleetConfig{
		Hosts: 3, DeltasPerHost: 5, Seed: 31,
		Sender: SenderConfig{
			TimeoutCycles: 200_000, BackoffBaseCycles: 20_000,
			BackoffCapCycles: 80_000, MaxAttempts: 3,
		},
		Net: NetFaultPlan{
			Seed:       31,
			Partitions: []Partition{{Host: PartitionAll, Start: 0, End: 40_000_000}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConservation(t, res)
	var spilled uint64
	for _, s := range res.Senders {
		spilled += s.Stats().Spilled
		for ev, n := range s.Stats().SpilledByEvent {
			if n == 0 {
				t.Errorf("host %d: zero-valued per-event spill entry %q", s.cfg.Host, ev)
			}
		}
	}
	if spilled == 0 {
		t.Fatal("permanent partition produced no spills")
	}
	if !res.Integrity.Degraded() {
		t.Fatal("spilled run not degraded")
	}
	// Offline recovery: reingest the parked deltas; with no losses the
	// aggregate must now equal everything generated.
	agg := res.Replayed
	hosts := []int{1, 2, 3}
	var reapplied int
	for _, ri := range ReingestSpills(m.Kern.Disk(), agg, hosts) {
		if ri.ReadError || ri.ParseErrors > 0 || ri.Salvage.Lossy() {
			t.Fatalf("spill reingest damaged: %+v", ri)
		}
		reapplied += ri.Applied
	}
	if reapplied == 0 {
		t.Fatal("reingest recovered nothing")
	}
	c := CheckConservation(res.Senders, agg)
	if !c.Balanced() {
		t.Fatalf("post-reingest conservation violated:\n%v", c.Mismatches)
	}
	var lost uint64
	for _, s := range res.Senders {
		lost += s.Stats().LostSamples
	}
	if want := c.GeneratedSamples - lost; c.AggregateSamples != want {
		t.Fatalf("after reingest aggregate %d, want %d (generated %d - lost %d)",
			c.AggregateSamples, want, c.GeneratedSamples, lost)
	}
}

// TestFleetCollectorCrashRecovery scripts a crash on a journal append:
// the supervisor must restart the collector through journal replay and
// the run must still conserve every sample.
func TestFleetCollectorCrashRecovery(t *testing.T) {
	m := newTestMachine(47)
	m.Kern.SetFaultInjectors(kernel.FaultPlan{
		Seed:       47,
		PathPrefix: JournalPrefix,
		Script:     []kernel.FaultPoint{{Write: 3, Kind: kernel.FaultCrash}},
	})
	res, err := RunFleet(m, FleetConfig{Hosts: 4, DeltasPerHost: 6, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	st := res.Collector.Stats()
	if st.Restarts == 0 {
		t.Fatal("scripted crash never restarted the collector")
	}
	requireConservation(t, res)
	c := CheckConservation(res.Senders, res.Replayed)
	if c.HeldSamples != 0 {
		t.Fatalf("recovered run still holds %d samples", c.HeldSamples)
	}
	if !res.Integrity.Degraded() {
		t.Fatal("crashed+recovered run reports clean")
	}
	if res.Integrity.Journal.Markers == 0 {
		t.Fatal("journal carries no restart marker evidence")
	}
}

// The wire order is a strict total order over every Key field: for
// distinct keys exactly one of less(a,b) and less(b,a) holds, so the
// same delta always serializes to the same bytes.
func TestWireKeyLessTotalOrder(t *testing.T) {
	var keys []oprofile.Key
	for bits := 0; bits < 1<<7; bits++ {
		b := func(i int) int { return bits >> i & 1 }
		keys = append(keys, oprofile.Key{
			Event: hpc.Event(b(0)),
			Image: []string{"libfleet.so", oprofile.JITImageName}[b(1)],
			Proc:  []string{"host01", "host02"}[b(2)],
			JIT:   b(3) == 1,
			Epoch: b(4),
			CPU:   b(5),
			Off:   addr.Address(0x40 * b(6)),
		})
	}
	for _, a := range keys {
		for _, b := range keys {
			ab, ba := wireKeyLess(a, b), wireKeyLess(b, a)
			if a == b && (ab || ba) {
				t.Fatalf("wireKeyLess(%+v, itself) = true", a)
			}
			if a != b && ab == ba {
				t.Fatalf("wireKeyLess(%+v, %+v) = %v both ways", a, b, ab)
			}
		}
	}
}
