// Package runbench measures end-to-end simulation throughput on the
// golden scenarios: wall-clock per run, kernel events retired per
// wall-second, simulated seconds advanced per wall-second, and heap
// allocations per simulated read. cmd/runbench is the CLI wrapper that
// writes BENCH_run.json; the measurement core lives here so tests can
// prove that measuring a run does not perturb it (identical result
// fingerprint and trace digest with measurement on or off).
package runbench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/scenarios"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceCap is the trace-log capacity runbench attaches, matching
// cmd/detgate: the measured run is byte-for-byte the gated run.
const TraceCap = 1 << 18

// Options tunes a measurement.
type Options struct {
	// Iterations is how many timed passes to make; the fastest pass is
	// reported (minimum strips scheduler noise, the convention
	// testing.Benchmark-style harnesses use).
	Iterations int

	// MinWall is the minimum wall time one pass must accumulate; the
	// scenario is re-run back to back until it is reached and per-run
	// figures are the pass average. A single golden run finishes in well
	// under a millisecond — far below clock-and-scheduler noise — so
	// passes must amortize over many runs. Zero means 500 ms.
	MinWall time.Duration
}

// Measurement is one scenario's result.
type Measurement struct {
	Scenario      string  `json:"scenario"`
	Shards        int     `json:"shards,omitempty"` // worker count; 0 = legacy single-kernel engine
	ComputeNodes  int     `json:"compute_nodes"`    // machine shape the number was measured on
	IONodes       int     `json:"io_nodes"`
	WallSec       float64 `json:"wall_sec"`        // per run, averaged over the fastest pass
	RunsPerPass   int     `json:"runs_per_pass"`   // back-to-back runs amortized per timed pass
	SimSec        float64 `json:"sim_sec"`         // simulated time one run covers
	SimPerWall    float64 `json:"sim_per_wall"`    // simulated seconds per wall second
	Events        uint64  `json:"events"`          // kernel events executed in one run
	EventsPerSec  float64 `json:"events_per_sec"`  // events retired per wall second
	Reads         int64   `json:"reads"`           // simulated read calls in one run
	AllocsPerRead float64 `json:"allocs_per_read"` // heap allocations per simulated read
	BytesPerRead  float64 `json:"bytes_per_read"`  // heap bytes per simulated read
	Fingerprint   string  `json:"fingerprint"`     // workload.Result.Fingerprint, %016x
	TraceDigest   string  `json:"trace_digest"`    // trace.Log.Digest, %016x

	// MaxQueueDepth is the deepest any kernel's event queue got — a
	// deterministic property of the schedule. BarrierDrainSec is the
	// wall-clock total of the sharded engine's single-threaded barrier
	// drain during the instrumented run (sharded only): the serial
	// fraction that bounds parallel speedup.
	MaxQueueDepth   int     `json:"max_queue_depth"`
	BarrierDrainSec float64 `json:"barrier_drain_sec,omitempty"`

	// PerGroupEvents is the per-shard-group event split (sharded engine
	// only): the load-balance evidence behind any parallel speedup claim.
	PerGroupEvents []uint64 `json:"per_group_events,omitempty"`

	// Flow-control token accounting (zero unless the scenario arms the
	// PFS token bucket): operations that consulted the bucket, how many
	// of them had to wait, and the total simulated time spent waiting.
	TokenOps     int64   `json:"token_ops,omitempty"`
	TokenWaits   int64   `json:"token_waits,omitempty"`
	TokenWaitSec float64 `json:"token_wait_sec,omitempty"`
}

// Run executes the scenario once with the standard golden trace attached
// and returns the result and trace log. This is the exact run detgate
// digests; Measure wraps it with clocks and allocation counters.
func Run(sc scenarios.Scenario) (*workload.Result, *trace.Log, error) {
	tl := trace.NewLog(TraceCap)
	spec := scenarios.QuickstartSpec(tl)
	if sc.Tweak != nil {
		sc.Tweak(&spec)
	}
	res, err := workload.Run(sc.Config(), spec)
	if err != nil {
		return nil, nil, fmt.Errorf("runbench: %s run failed: %w", sc.Name, err)
	}
	return res, tl, nil
}

// Measure runs the scenario through opt.Iterations timed passes and
// reports the fastest. The run itself is untouched: measurement is wall
// clocks around Run plus runtime.MemStats deltas, none of which the
// simulation can observe (nothing in the simulator reads wall time or
// allocator state).
func Measure(sc scenarios.Scenario, opt Options) (Measurement, error) {
	iters := opt.Iterations
	if iters <= 0 {
		iters = 1
	}
	minWall := opt.MinWall
	if minWall <= 0 {
		minWall = 500 * time.Millisecond
	}

	var m Measurement
	m.Scenario = sc.Name

	// One instrumented run for the deterministic quantities. Allocation
	// counts are per-run identical on a deterministic simulation, so a
	// single MemStats delta is exact (other goroutines are quiescent in
	// both the CLI and the tests that call this).
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res, tl, err := Run(sc)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return m, err
	}
	m.SimSec = res.Elapsed.Seconds()
	mcfg := res.Machine.Config()
	m.Shards = mcfg.Shards
	m.ComputeNodes = mcfg.ComputeNodes
	m.IONodes = mcfg.IONodes
	m.Events = res.Machine.Executed()
	m.PerGroupEvents = res.Machine.PerGroupExecuted()
	m.Reads = res.ReadCalls
	if res.ReadCalls > 0 {
		m.AllocsPerRead = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.ReadCalls)
		m.BytesPerRead = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(res.ReadCalls)
	}
	m.MaxQueueDepth = res.Machine.MaxQueueDepth()
	m.BarrierDrainSec = res.Machine.BarrierDrainWall().Seconds()
	m.Fingerprint = fmt.Sprintf("%016x", res.Fingerprint())
	m.TraceDigest = fmt.Sprintf("%016x", tl.Digest())
	m.TokenOps = res.TokenOps
	m.TokenWaits = res.TokenWaits
	m.TokenWaitSec = res.TokenWaitTime.Seconds()

	// Timed passes: repeat the run back to back until the pass has
	// accumulated minWall, then average. GC triggered by the runs is
	// deliberately inside the timed region — allocation cost is part of
	// what end-to-end throughput means here.
	for i := 0; i < iters; i++ {
		runs := 0
		start := time.Now()
		for time.Since(start) < minWall {
			if _, _, err := Run(sc); err != nil {
				return m, err
			}
			runs++
		}
		wall := time.Since(start).Seconds() / float64(runs)
		if i == 0 || wall < m.WallSec {
			m.WallSec = wall
			m.RunsPerPass = runs
		}
	}
	if m.WallSec > 0 {
		m.SimPerWall = m.SimSec / m.WallSec
		m.EventsPerSec = float64(m.Events) / m.WallSec
	}
	return m, nil
}
