package harness

import (
	"fmt"
	"math/rand"
	"strings"

	"viprof/internal/fleet"
	"viprof/internal/kernel"
)

// The fleet chaos harness: run a full multi-host collection session
// while seeded fault plans attack both the network (drop, duplicate,
// reorder, latency, partition) and the persistence layer under
// var/fleet (the disk/rename/read/list scenario family from chaos.go,
// retargeted at the collector journal, the spill files, and the
// snapshot commit), then hand everything to the conservation invariants
// in fleet_chaos_test.go.

// FleetScenario names one attack profile in the fleet composition set.
type FleetScenario int

// Fleet scenarios: five network attacks plus the fleet-path analogues
// of the single-host disk scenarios.
const (
	// FleetNetDrop loses a fraction of datagrams (deltas and acks).
	FleetNetDrop FleetScenario = iota
	// FleetNetDup duplicates datagrams; idempotent replay must absorb.
	FleetNetDup
	// FleetNetReorder delays datagrams past later traffic.
	FleetNetReorder
	// FleetNetLatency injects bounded latency spikes (never enough to
	// trip the ack timeout on their own).
	FleetNetLatency
	// FleetNetPartition opens full-fleet partition windows; long draws
	// outlast the retry budget and force host-side spills.
	FleetNetPartition
	// FleetCollectorCrash crashes the collector during a journal append
	// (supervisor restart + journal replay under test).
	FleetCollectorCrash
	// FleetENOSPC starves every fleet writer of disk space.
	FleetENOSPC
	// FleetTornJournal tears collector journal appends.
	FleetTornJournal
	// FleetTornSpill tears host spill writes (a parked delta's durable
	// copy is damaged — the gap must poison loudly).
	FleetTornSpill
	// FleetSenderKill crashes a host during a spill write.
	FleetSenderKill
	// FleetRenameSnapshot attacks the aggregate snapshot's atomic
	// commit (fail-before, fail-after, crash mid-commit).
	FleetRenameSnapshot
	// FleetDirDamage damages spill-directory listings (dropped and
	// phantom dirents during integrity's discovery scan).
	FleetDirDamage
	// FleetReadFault delivers seeded EIO on reads under var/fleet —
	// journal replay at restart, and every integrity read-back.
	FleetReadFault
	// FleetShardKill crashes collector shard processes during journal
	// appends — failover handoff plus supervisor restart under test.
	FleetShardKill
	// FleetCompactKill enables online compaction and crashes the
	// compactord daemon mid-pass (tmp writes, renames, the manifest
	// commit itself) — the LSM crash-safety discipline under test.
	FleetCompactKill
	// FleetMapPartition opens a partition window over the map
	// replication phase (the first seqs every host sends), forcing
	// code-map retries through failover routing.
	FleetMapPartition
	numFleetScenarios
)

// String names the scenario.
func (s FleetScenario) String() string {
	switch s {
	case FleetNetDrop:
		return "net-drop"
	case FleetNetDup:
		return "net-dup"
	case FleetNetReorder:
		return "net-reorder"
	case FleetNetLatency:
		return "net-latency"
	case FleetNetPartition:
		return "net-partition"
	case FleetCollectorCrash:
		return "collector-crash"
	case FleetENOSPC:
		return "fleet-enospc"
	case FleetTornJournal:
		return "torn-journal"
	case FleetTornSpill:
		return "torn-spill"
	case FleetSenderKill:
		return "sender-kill"
	case FleetRenameSnapshot:
		return "rename-snapshot"
	case FleetDirDamage:
		return "fleet-dir-damage"
	case FleetReadFault:
		return "fleet-read-fault"
	case FleetShardKill:
		return "shard-kill"
	case FleetCompactKill:
		return "compact-kill"
	case FleetMapPartition:
		return "map-partition"
	default:
		return fmt.Sprintf("fleet-scenario-%d", int(s))
	}
}

// fleetNetPlan folds one network scenario into the (single) net plan.
func fleetNetPlan(plan *fleet.NetFaultPlan, sc FleetScenario, seed int64) {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 1))
	switch sc {
	case FleetNetDrop:
		plan.PDrop = 0.02 + 0.10*rng.Float64()
		plan.MaxFaults = 4 + rng.Intn(12)
	case FleetNetDup:
		plan.PDup = 0.2 + 0.3*rng.Float64()
	case FleetNetReorder:
		plan.PReorder = 0.2 + 0.3*rng.Float64()
	case FleetNetLatency:
		plan.PLatency = 0.2 + 0.3*rng.Float64()
	case FleetNetPartition:
		// One or two windows; a long draw (past the ~10M-cycle retry
		// budget) forces spills, a short one heals in time.
		n := 1 + rng.Intn(2)
		at := uint64(100_000 + rng.Intn(2_000_000))
		for i := 0; i < n; i++ {
			width := uint64(800_000 + rng.Intn(14_000_000))
			plan.Partitions = append(plan.Partitions, fleet.Partition{
				Host: fleet.PartitionAll, Start: at, End: at + width,
			})
			at += width + uint64(500_000+rng.Intn(2_000_000))
		}
	case FleetMapPartition:
		// A window opening almost immediately, while the hosts are still
		// replicating their epoch code maps (the first seqs, generated in
		// the first ~100k cycles) — map frames retry through it and land
		// after it heals, exercising replication under partition.
		start := uint64(20_000 + rng.Intn(60_000))
		width := uint64(400_000 + rng.Intn(1_600_000))
		plan.Partitions = append(plan.Partitions, fleet.Partition{
			Host: fleet.PartitionAll, Start: start, End: start + width,
		})
	}
}

// fleetDiskPlan derives one disk scenario's write/rename-side plan.
// Fleet plans never use PLatency: a disk-latency stall advances the
// global clock, which can expire ack deadlines and degrade a run with
// zero destructive faults — exactly the ambiguity the destructive ⇒
// degraded invariant forbids.
func fleetDiskPlan(sc FleetScenario, seed int64) kernel.FaultPlan {
	rng := rand.New(rand.NewSource(seed*0x9E3779B9 + 1))
	plan := kernel.FaultPlan{Seed: seed}
	switch sc {
	case FleetCollectorCrash:
		plan.PathPrefix = fleet.JournalPrefix
		plan.PCrash = 0.02 + 0.08*rng.Float64()
		plan.MaxFaults = 1 + rng.Intn(2)
	case FleetShardKill:
		plan.PathPrefix = fleet.JournalPrefix
		plan.PCrash = 0.05 + 0.15*rng.Float64()
		plan.MaxFaults = 2 + rng.Intn(3)
	case FleetCompactKill:
		plan.PathPrefix = fleet.GenDir + "/"
		plan.PCrash = 0.1 + 0.3*rng.Float64()
		plan.PRenameCrash = 0.1 + 0.2*rng.Float64()
		plan.MaxFaults = 1 + rng.Intn(2)
	case FleetENOSPC:
		plan.PathPrefix = fleet.FleetDir + "/"
		plan.PENOSPC = 0.05 + 0.25*rng.Float64()
		plan.PEIO = 0.05 * rng.Float64()
		plan.MaxFaults = 2 + rng.Intn(6)
	case FleetTornJournal:
		plan.PathPrefix = fleet.JournalPrefix
		plan.PTorn = 0.1 + 0.4*rng.Float64()
		plan.MaxFaults = 2 + rng.Intn(5)
	case FleetTornSpill:
		plan.PathPrefix = fleet.FleetDir + "/host"
		plan.PTorn = 0.3 + 0.5*rng.Float64()
		plan.MaxFaults = 1 + rng.Intn(4)
	case FleetSenderKill:
		plan.PathPrefix = fleet.FleetDir + "/host"
		plan.PCrash = 0.2 + 0.4*rng.Float64()
		plan.MaxFaults = 1
	case FleetRenameSnapshot:
		plan.PathPrefix = fleet.AggregateFile
		plan.PRenameBefore = 0.2 + 0.3*rng.Float64()
		plan.PRenameAfter = 0.1 + 0.2*rng.Float64()
		plan.PRenameCrash = 0.05 + 0.15*rng.Float64()
		plan.MaxFaults = 1 + rng.Intn(3)
	}
	return plan
}

// fleetListPlan derives FleetDirDamage's listing-damage schedule.
func fleetListPlan(seed int64) kernel.ListFaultPlan {
	rng := rand.New(rand.NewSource(seed*0x2545F491 + 11))
	return kernel.ListFaultPlan{
		Seed:       seed,
		PathPrefix: fleet.FleetDir + "/host",
		PDrop:      0.1 + 0.3*rng.Float64(),
		PPhantom:   0.05 + 0.2*rng.Float64(),
		MaxFaults:  1 + rng.Intn(4),
	}
}

// fleetReadPlan derives FleetReadFault's EIO schedule: reads under
// var/fleet fail — journal replay during supervisor restarts and every
// offline integrity read-back alike.
func fleetReadPlan(seed int64) kernel.ReadFaultPlan {
	rng := rand.New(rand.NewSource(seed*0x5851F42D + 3))
	return kernel.ReadFaultPlan{
		Seed:       seed,
		PathPrefix: fleet.FleetDir + "/",
		PEIO:       0.05 + 0.25*rng.Float64(),
		MaxFaults:  1 + rng.Intn(3),
	}
}

// FleetSchedule is a composed fleet attack: network faults folded into
// one net plan, disk plans armed simultaneously, plus optional listing
// and read damage.
type FleetSchedule struct {
	Seed      int64
	Scenarios []FleetScenario
	Net       fleet.NetFaultPlan
	Plans     []kernel.FaultPlan
	ListPlan  *kernel.ListFaultPlan
	ReadPlan  *kernel.ReadFaultPlan
	// Cores sizes the simulated machine (0 = 1); shard processes pin
	// across them.
	Cores int
	// CompactEveryCycles enables the online compactor daemon (0 = off).
	CompactEveryCycles uint64
}

// String names the composition, e.g. "net-drop+torn-journal".
func (fs FleetSchedule) String() string {
	if len(fs.Scenarios) == 0 {
		return "scripted"
	}
	names := make([]string, len(fs.Scenarios))
	for i, sc := range fs.Scenarios {
		names[i] = sc.String()
	}
	return strings.Join(names, "+")
}

// FleetScheduleOf maps a seed to its composed schedule. The first
// numFleetScenarios seeds run each scenario alone (a sweep from seed 0
// covers every scenario in isolation); later seeds draw 1-3 distinct
// scenarios, freely mixing network and disk attacks. Per-scenario plan
// seeds are derived from the run seed so composed plans never share RNG
// streams.
func FleetScheduleOf(seed int64) FleetSchedule {
	sched := FleetSchedule{Seed: seed, Net: fleet.NetFaultPlan{Seed: seed*0x6C078965 + 13}}
	var scens []FleetScenario
	rng := rand.New(rand.NewSource(seed*0x6C078965 + 7))
	if seed >= 0 && seed < int64(numFleetScenarios) {
		scens = []FleetScenario{FleetScenario(seed)}
	} else {
		n := 1 + rng.Intn(3)
		for _, p := range rng.Perm(int(numFleetScenarios))[:n] {
			scens = append(scens, FleetScenario(p))
		}
	}
	// Machine shape: isolated sweeps and composed draws alike cover
	// single-core and SMP, and roughly half of all runs compact online
	// while under attack.
	sched.Cores = []int{1, 2, 4}[rng.Intn(3)]
	if rng.Intn(2) == 0 {
		sched.CompactEveryCycles = uint64(200_000 + rng.Intn(600_000))
	}
	for i, sc := range scens {
		pseed := seed*31 + int64(i) + 1
		switch {
		case sc <= FleetNetPartition || sc == FleetMapPartition:
			fleetNetPlan(&sched.Net, sc, pseed)
		case sc == FleetDirDamage:
			lp := fleetListPlan(pseed)
			sched.ListPlan = &lp
		case sc == FleetReadFault:
			rp := fleetReadPlan(pseed)
			sched.ReadPlan = &rp
		default:
			if sc == FleetCompactKill && sched.CompactEveryCycles == 0 {
				// The attack needs a compactor to strike.
				sched.CompactEveryCycles = uint64(200_000 + rng.Intn(600_000))
			}
			sched.Plans = append(sched.Plans, fleetDiskPlan(sc, pseed))
		}
	}
	sched.Scenarios = scens
	return sched
}

// FleetChaosResult is everything one fleet chaos run produced.
type FleetChaosResult struct {
	Seed     int64
	Schedule FleetSchedule
	Result   *fleet.FleetResult
	// Machine is the collector machine; its disk is the store.
	Machine *kernel.Machine
	// Injector accounting: disk write/rename faults, listing damage,
	// and read EIOs (the network's own counters are in Result.Net).
	Faults     kernel.FaultStats
	ListFaults kernel.ListFaultStats
	ReadFaults kernel.ReadFaultStats
}

// TotalDestructive sums every injected event that can destroy or hide
// state: disk faults (minus pure latency), network drops and partition
// rejections, read EIOs, and listing damage. The conservation sweep's
// contract: zero here means a bit-perfect run, and any degradation
// anywhere implies this is positive.
func (r *FleetChaosResult) TotalDestructive() uint64 {
	return r.Faults.Destructive() + r.Result.Net.Destructive() +
		r.ReadFaults.EIO + r.ListFaults.Dropped + r.ListFaults.Phantoms
}

// RunFleetChaos executes one fleet run under the seed's composed
// schedule: hosts and workload sizes drawn from the seed, all injectors
// armed before the machine starts (read faults included — supervisor
// journal replays run under fire), integrity assembled from whatever
// survived.
func RunFleetChaos(seed int64) (*FleetChaosResult, error) {
	return RunFleetChaosSchedule(seed, FleetScheduleOf(seed))
}

// RunFleetChaosSchedule is RunFleetChaos with a caller-supplied
// schedule (scripted fault points, custom partitions).
func RunFleetChaosSchedule(seed int64, sched FleetSchedule) (*FleetChaosResult, error) {
	rng := rand.New(rand.NewSource(seed*0x6C078965 + 29))
	cfg := fleet.FleetConfig{
		Hosts:         8 + rng.Intn(3),
		DeltasPerHost: 6 + rng.Intn(5),
		Seed:          seed,
		Net:           sched.Net,
	}
	cfg.Collector.CompactEveryCycles = sched.CompactEveryCycles
	cores := sched.Cores
	if cores <= 0 {
		cores = 1
	}
	machine := BuildMachine(cores, seed)
	machine.Kern.SetFaultInjectors(sched.Plans...)
	disk := machine.Kern.Disk()
	if sched.ListPlan != nil {
		disk.SetListFaultInjector(*sched.ListPlan)
	}
	if sched.ReadPlan != nil {
		disk.SetReadFaultInjector(*sched.ReadPlan)
	}
	res, err := fleet.RunFleet(machine, cfg)
	listStats := disk.ListFaultStats()
	readStats := disk.ReadFaultStats()
	disk.ClearListFaultInjector()
	disk.ClearReadFaultInjector()
	if err != nil {
		return nil, fmt.Errorf("fleet chaos seed %d: %v", seed, err)
	}
	return &FleetChaosResult{
		Seed:       seed,
		Schedule:   sched,
		Result:     res,
		Machine:    machine,
		Faults:     machine.Kern.FaultStats(),
		ListFaults: listStats,
		ReadFaults: readStats,
	}, nil
}
