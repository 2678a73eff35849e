// Package scenarios defines the three golden scenarios — healthy
// quickstart, chaos, and crash — shared by the determinism gate
// (cmd/detgate) and the end-to-end benchmark harness (cmd/runbench).
// Both tools must run literally the same machine configuration and
// workload spec: detgate pins the event history of these runs with
// committed digests, and runbench quotes throughput numbers for them, so
// a drift between the two would benchmark something the gate no longer
// guarantees.
package scenarios

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scenario is one golden run: a machine configuration plus an optional
// spec adjustment on top of the shared quickstart workload.
type Scenario struct {
	Name   string
	Config func() machine.Config
	Tweak  func(*workload.Spec) // optional; applied to Spec before Run
}

// QuickstartMachine is the gate platform: 4 compute and 4 I/O nodes,
// fragmentation off (matching internal/workload's golden-trace test).
func QuickstartMachine() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.ComputeNodes = 4
	cfg.IONodes = 4
	cfg.UFS.Fragmentation = 0
	return cfg
}

// QuickstartSpec is the shared workload: M_RECORD readers with
// prefetching and 50 ms of computation between reads.
func QuickstartSpec(tl *trace.Log) workload.Spec {
	pcfg := prefetch.DefaultConfig()
	return workload.Spec{
		File:         "quickstart",
		FileSize:     1 << 20,
		RequestSize:  64 << 10,
		Mode:         pfs.MRecord,
		ComputeDelay: 50 * sim.Millisecond,
		Prefetch:     &pcfg,
		Trace:        tl,
	}
}

// ChaosMachine arms the full fault-tolerance stack on the gate platform.
func ChaosMachine() machine.Config {
	cfg := QuickstartMachine()
	cfg.DiskFaultRate = 0.03
	cfg.DiskFaultTransientFrac = 1
	cfg.DiskFaultJitter = 0.2
	cfg.FaultSeed = 42
	cfg.Shed = ionode.ShedPolicy{Threshold: 3, Cooldown: 20 * sim.Millisecond}
	cfg.PFS.Retry = pfs.DefaultRetryPolicy()
	return cfg
}

// CrashMachine arms the crash–restart fault domain on the gate platform:
// two whole-node outages the restart-aware failover rides out, plus a
// permanent member loss with the online rebuild racing the reads.
func CrashMachine() machine.Config {
	cfg := QuickstartMachine()
	cfg.PFS.Retry = pfs.RetryPolicy{
		MaxRetries:   8,
		Timeout:      2 * sim.Second,
		Backoff:      2 * sim.Millisecond,
		BackoffMax:   100 * sim.Millisecond,
		Seed:         1,
		DownPoll:     50 * sim.Millisecond,
		DownDeadline: 2500 * sim.Millisecond,
	}
	cfg.Crash = machine.CrashPlan{
		Count:    2,
		Seed:     5,
		Start:    50 * sim.Millisecond,
		Window:   400 * sim.Millisecond,
		Downtime: 800 * sim.Millisecond,
	}
	cfg.MemberFail = machine.MemberFailPlan{At: 100 * sim.Millisecond, Array: 0, Member: 1}
	cfg.Rebuild = disk.RebuildPolicy{Chunk: 128 << 10, Gap: 2 * sim.Millisecond}
	return cfg
}

// TournamentTweak arms the prefetcher-zoo stack on a spec: the hybrid
// policy (mode, sequential, and stride sources racing under per-stream
// accuracy grading) with the online controller retuning Depth and
// MaxBuffers every 4 reads. Shared by the golden scenario below and the
// ext-tournament experiment's simcheck twin, so the gated configuration
// is literally the one the experiment verifies.
func TournamentTweak(spec *workload.Spec) {
	spec.Prefetch.Policy = "hybrid"
	spec.Prefetch.Controller = prefetch.ControllerConfig{Interval: 4}
}

// ScaleMachine is the large-configuration platform: 1024 compute and
// 256 I/O nodes on a 36×36 mesh, the I/O side partitioned into 16 shard
// groups (a 1024×256 machine on 257 kernels would spend every ~20µs
// lookahead round on barriers instead of events), and files striping
// over 16-node tiles of the I/O partition so declustering stays
// O(stripe width).
func ScaleMachine() machine.Config {
	cfg := QuickstartMachine()
	cfg.ComputeNodes = 1024
	cfg.IONodes = 256
	cfg.IOGroups = 16
	cfg.PFS.GroupWidth = 16
	return cfg
}

// ScaleTweak sizes the quickstart spec for the scale platform: every
// compute node streams a private 128 KB file (two 64 KB reads) created
// with the tiled default attributes, so the 1024-file population covers
// all 256 I/O nodes.
func ScaleTweak(spec *workload.Spec) {
	spec.SeparateFiles = true
	spec.FileSize = 1024 * (128 << 10)
}

// Scale returns the 1024×256 scenario. It is deliberately not part of
// Golden() — the detgate golden set stays small and fast — and is
// instead covered by the scale shard-differential test and reachable by
// name (runbench -scenario scale).
func Scale() Scenario {
	return Scenario{Name: "scale", Config: ScaleMachine, Tweak: ScaleTweak}
}

// Golden returns the gated scenarios in golden-file line order.
func Golden() []Scenario {
	return []Scenario{
		{Name: "quickstart", Config: QuickstartMachine},
		{Name: "chaos", Config: ChaosMachine},
		{Name: "crash", Config: CrashMachine,
			Tweak: func(spec *workload.Spec) { spec.ContinueOnUnavailable = true }},
		{Name: "tournament", Config: QuickstartMachine, Tweak: TournamentTweak},
	}
}

// WithShards returns sc reconfigured for the sharded engine with the
// given worker count (n ≥ 1), renamed "<name>@shards=<n>". The fixed
// group partition makes results bit-identical at every n, so detgate
// records one sharded digest per scenario and asserts the others equal.
func WithShards(sc Scenario, n int) Scenario {
	base := sc.Config
	return Scenario{
		Name: fmt.Sprintf("%s@shards=%d", sc.Name, n),
		Config: func() machine.Config {
			cfg := base()
			cfg.Shards = n
			return cfg
		},
		Tweak: sc.Tweak,
	}
}

// ByName returns the golden scenario with the given name — or the scale
// scenario, which is addressable by name without being golden — or
// false.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Golden() {
		if sc.Name == name {
			return sc, true
		}
	}
	if sc := Scale(); sc.Name == name {
		return sc, true
	}
	return Scenario{}, false
}
