package main

import (
	"fmt"
	"math/rand"

	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/scenarios"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	paperSweep      = "paper-sweep"
	checkpointScale = "checkpoint-scale"
	tenantOverload  = "tenant-overload"
)

// Workload sizes. Each pass runs the whole list once, so these set the
// work per measured pass; they are chosen so every workload has well over
// 10,000 application reads (ten beyond p99.9) and the run-to-run spread
// of a --seconds 30 run stays inside the bounds in BENCHMARK.json.
const (
	sweepReps = 2 // copies of the factorial design in a pass
	ckptSims  = 8
	qosSims   = 256
)

// sloLatency is the simulated read-latency objective: tenant-overload
// counts requests served within it over requests offered, the other
// workloads count application reads within it over reads issued.
const sloLatency = 50 * sim.Millisecond

// job is one simulation of a workload's fixed list.
type job interface {
	// setup builds the machine and creates every input file, exactly as
	// the full run would, and returns the host time of each step.
	setup() (build, create float64, err error)
	// run executes the whole simulation, machine build included.
	run() (*outcome, error)
	// check compares a run's output with what the inputs imply.
	check(out *outcome) error
}

// generate expands (workload, seed) into the workload's simulation list.
// The list is a pure function of its arguments.
func generate(name string, seed int64) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case paperSweep:
		return genSweep(rng, sweepReps), nil
	case checkpointScale:
		return genCheckpoint(rng, ckptSims), nil
	case tenantOverload:
		return genOverload(rng, qosSims), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)",
		name, paperSweep, checkpointScale, tenantOverload)
}

// fixedDesign is the generator for the parts of a workload that are the
// same on every seed (see genSweep).
func fixedDesign() *rand.Rand { return rand.New(rand.NewSource(1)) }

// balanced returns n levels over 0..k-1 in which every level appears n/k
// times (the first n%k levels once more), in an order drawn from rng, so
// each factor's mix is exact however the levels pair up.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// readJob is one paper-sweep simulation: a closed-loop SPMD read
// workload through workload.Run.
type readJob struct {
	cfg  machine.Config
	spec workload.Spec
}

// asyncVariants are the M_ASYNC access patterns the sweep draws; the
// last one reads private per-node files.
var asyncVariants = []workload.Pattern{workload.Interleaved, workload.Partitioned,
	workload.Strided, workload.Random, -1}

var sweepModes = []pfs.Mode{pfs.MUnix, pfs.MLog, pfs.MSync, pfs.MRecord, pfs.MGlobal, pfs.MAsync}

// genSweep draws simulations from the paper's evaluation space: all six
// I/O modes × 4, 8 or 16 compute nodes × 2, 4 or 8 I/O nodes × 64 KB,
// 256 KB or 1 MB requests × 32, 64 or 256 KB stripe units, reps copies
// of the full factorial. Two thirds run the client prefetcher (zoo
// policies and the online controller included), a ninth uses server-side
// placement on a buffered mount, and one in eight arms transient disk
// faults that the retry policy recovers from; each simulation computes
// 0–100 ms between 4–8 reads per node.
//
// The p99.9 read latency comes from a few dozen simulations in the
// largest-request, fewest-server corner, so which levels pair with which
// is a fixed design, the same on every seed. The seed draws what varies
// from run to run of one configuration: the file-system layouts, the
// M_ASYNC random offsets, the fault streams, and ±10% of each compute
// delay.
func genSweep(rng *rand.Rand, reps int) []job {
	computes := []int{4, 8, 16}
	ios := []int{2, 4, 8}
	reqs := []int64{64 << 10, 256 << 10, 1 << 20}
	units := []int64{32 << 10, 64 << 10, 256 << 10}
	n := reps * len(sweepModes) * len(computes) * len(ios) * len(reqs) * len(units)
	design := fixedDesign()
	arms := balanced(design, n, 9) // 0–5 client prefetch, 6 server-side, 7–8 none
	faults := balanced(design, n, 8)
	variants := balanced(design, n, len(asyncVariants))
	policies := balanced(design, n, 5)

	jobs := make([]job, n)
	for i := range jobs {
		k := i
		level := func(m int) int { l := k % m; k /= m; return l }
		cfg := machine.DefaultConfig()
		mode := sweepModes[level(len(sweepModes))]
		cfg.ComputeNodes = computes[level(len(computes))]
		cfg.IONodes = ios[level(len(ios))]
		req := reqs[level(len(reqs))]
		rounds := int64(4 + design.Intn(5)) // reads per node
		delay := float64(design.Int63n(int64(100*sim.Millisecond) + 1))
		spec := workload.Spec{
			File:         "sweep",
			FileSize:     int64(cfg.ComputeNodes) * req * rounds,
			RequestSize:  req,
			Mode:         mode,
			ComputeDelay: sim.Time(delay * (0.9 + 0.2*rng.Float64())),
			StripeUnit:   units[level(len(units))],
			Seed:         rng.Int63(),
		}
		cfg.UFS.Seed = rng.Int63()
		switch spec.Mode {
		case pfs.MGlobal:
			// Every node reads every record: keep the per-node read count
			// in the same range as the other modes.
			spec.FileSize = req * rounds
		case pfs.MAsync:
			if p := asyncVariants[variants[i]]; p < 0 {
				spec.SeparateFiles = true
			} else {
				spec.Pattern = p
				spec.Stride = 2
			}
		}
		switch a := arms[i]; {
		case a < 6:
			pcfg := prefetch.DefaultConfig()
			pcfg.Depth = 1 + design.Intn(3)
			pcfg.MaxBuffers = 2 + design.Intn(7)
			pcfg.Policy = []string{"", "mode", "sequential", "stride", "hybrid"}[policies[i]]
			if a%3 == 0 {
				pcfg.Controller = prefetch.ControllerConfig{Interval: int64(2 + design.Intn(6))}
			}
			spec.Prefetch = &pcfg
		case a == 6:
			sscfg := prefetch.DefaultServerSideConfig()
			sscfg.Depth = 1 + design.Intn(2)
			spec.ServerSide = &sscfg
			spec.Buffered = true
		}
		if faults[i] == 0 {
			cfg.DiskFaultRate = 0.01 + 0.04*design.Float64()
			cfg.DiskFaultTransientFrac = 1
			cfg.FaultSeed = rng.Int63()
			cfg.PFS.Retry = pfs.DefaultRetryPolicy()
		}
		jobs[i] = &readJob{cfg: cfg, spec: spec}
	}
	return jobs
}

// ckptJob is one checkpoint-scale simulation on the 1024×256 machine:
// every compute node writes a private checkpoint through write-behind,
// flushes, then reopens it with the prefetcher attached and reads it
// back.
type ckptJob struct {
	cfg     machine.Config
	arrive  []sim.Time // per node: computation before its checkpoint starts
	records int        // checkpoint records per node
	record  int64      // bytes per record
	delay   sim.Time   // computation between records, both phases
	wb      prefetch.WriteBehindConfig
	pf      prefetch.Config
}

// genCheckpoint builds n checkpoint simulations. Write-behind buffers and
// prefetch depth cycle with the position in the list; the seed draws the
// file-system layouts, when each node reaches its checkpoint, and the
// computation between records.
func genCheckpoint(rng *rand.Rand, n int) []job {
	jobs := make([]job, n)
	for i := range jobs {
		cfg := scenarios.ScaleMachine()
		cfg.UFS.Seed = rng.Int63()
		// Nodes reach the checkpoint after 0–50 ms of computation each.
		arrive := make([]sim.Time, cfg.ComputeNodes)
		for k := range arrive {
			arrive[k] = sim.Time(rng.Int63n(int64(50 * sim.Millisecond)))
		}
		wb := prefetch.DefaultWriteBehindConfig()
		wb.MaxBuffers = 2 + i%3
		pcfg := prefetch.DefaultConfig()
		pcfg.Depth = 1 + i%2
		jobs[i] = &ckptJob{
			cfg:     cfg,
			arrive:  arrive,
			records: 4,
			record:  64 << 10,
			delay:   sim.Time(5*sim.Millisecond) + sim.Time(rng.Int63n(int64(5*sim.Millisecond))),
			wb:      wb,
			pf:      pcfg,
		}
	}
	return jobs
}

// qosJob is one tenant-overload simulation through workload.RunQoS.
type qosJob struct {
	cfg  machine.Config
	spec workload.QoSSpec
}

// genOverload builds n open-loop multi-tenant runs: 128 tenants on a
// 16-compute × 4-I/O machine with weighted fair queueing, two service
// slots and token-bucket admission, heavy-tailed Pareto arrivals whose
// bursts exceed the service rate (admission throttles about a quarter of
// the requests), Zipf file popularity, and the prefetcher on every 4th
// tenant. Weights, admission rates, file counts, request sizes and mean
// gaps are a fixed design; the seed draws the arrival schedules, demands
// and file choices (QoSSpec.Seed) and the file-system layouts.
func genOverload(rng *rand.Rand, n int) []job {
	weights := [][]int{{1}, {4, 2, 1}, {8, 1}, {3, 2, 1, 1}}
	design := fixedDesign()
	ws := balanced(design, n, len(weights))
	rates := balanced(design, n, 2)
	files := balanced(design, n, 4)
	reqs := balanced(design, n, 2)
	gaps := balanced(design, n, 4)
	jobs := make([]job, n)
	for i := range jobs {
		cfg := machine.DefaultConfig()
		cfg.ComputeNodes = 16
		cfg.IONodes = 4
		cfg.UFS.Seed = rng.Int63()
		cfg.Fair = ionode.FairPolicy{
			Weights:       weights[ws[i]],
			Slots:         2,
			RatePerWeight: int64(2+2*rates[i]) << 10,
			BurstBytes:    32 << 10,
		}
		pcfg := prefetch.DefaultConfig()
		jobs[i] = &qosJob{cfg: cfg, spec: workload.QoSSpec{
			Tenants:       128,
			Files:         8 << files[i],
			FileSize:      1 << 20,
			RequestSize:   int64(1+reqs[i]) * 16 << 10,
			Requests:      4,
			MeanGap:       sim.Time(800+200*gaps[i]) * sim.Millisecond,
			Seed:          rng.Int63(),
			SLO:           sloLatency,
			Prefetch:      &pcfg,
			PrefetchEvery: 4,
		}}
	}
	return jobs
}
