// Command runbench is the end-to-end benchmark harness: it runs the
// three golden scenarios (healthy quickstart, chaos, crash) — the exact
// runs cmd/detgate digests — and reports how fast the simulator gets
// through them: events per wall-second, simulated seconds per
// wall-second, and heap allocations per simulated read. Results land in
// BENCH_run.json next to BENCH_sweep.json (regenerate both with
// `make bench`).
//
// Profile capture: -cpuprofile and -memprofile write standard pprof
// files covering the measurement runs, for `go tool pprof`.
//
// Speedup tracking: -baseline takes a previous BENCH_run.json from the
// SAME machine and records the healthy-scenario speedup against it.
// Numbers are wall-clock and machine-dependent — the JSON records
// num_cpu and gomaxprocs, and comparing files from different hardware
// measures the hardware, not the code.
//
// Sharded engine: -shards takes a comma-separated list of worker counts
// (e.g. -shards 1,2,4,8) and additionally measures the healthy scenario
// on the sharded multi-core engine at each count, recording the
// aggregate events/sec and the parallel speedup of the widest count
// against shards=1 (the sharded engine's own serial baseline). The
// event schedules are bit-identical across counts — detgate proves that
// — so the ratio is a pure scheduling speedup. On machines with fewer
// CPUs than the widest count the speedup is bounded by the hardware and
// the JSON carries an explicit caveat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/runbench"
	"repro/internal/scenarios"
)

type report struct {
	GoVersion  string                          `json:"go_version"`
	GOOS       string                          `json:"goos"`
	GOARCH     string                          `json:"goarch"`
	NumCPU     int                             `json:"num_cpu"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	Iterations int                             `json:"iterations"`
	Scenarios  map[string]runbench.Measurement `json:"scenarios"`

	// Baseline comparison (present only with -baseline): the healthy
	// scenario's events/sec ratio against the given earlier report. The
	// two runs cover identical event schedules (detgate pins them), so
	// the events/sec ratio is exactly the end-to-end wall-clock speedup.
	BaselinePath         string  `json:"baseline_path,omitempty"`
	BaselineEventsPerSec float64 `json:"baseline_events_per_sec,omitempty"`
	SpeedupHealthy       float64 `json:"speedup_healthy,omitempty"`

	// Regression gate (present only with -baseline -tolerance): every
	// scenario measured by both reports must retire at least
	// tolerance × the baseline's events/sec, or the run exits non-zero
	// (after writing the JSON, so the regressed numbers are inspectable).
	// BaselineCaveat records the one legitimate skip: the baseline came
	// from a host with a different CPU count, so the wall-clock ratio
	// would measure hardware, not code.
	Tolerance      float64 `json:"tolerance,omitempty"`
	BaselineCaveat string  `json:"baseline_caveat,omitempty"`

	// Sharded-engine measurements (present only with -shards): the
	// healthy scenario at each worker count, in the order given, plus
	// the widest count's events/sec ratio against shards=1. ShardCaveat
	// flags runs where the host had fewer CPUs than the widest count,
	// which bounds the achievable speedup regardless of the engine.
	Sharded       []runbench.Measurement `json:"sharded,omitempty"`
	SpeedupShards float64                `json:"speedup_shards,omitempty"`
	ShardCaveat   string                 `json:"shard_caveat,omitempty"`
}

func main() {
	var (
		out        = flag.String("o", "BENCH_run.json", "output JSON path (- for stdout)")
		iters      = flag.Int("iterations", 5, "runs per scenario; fastest wall-clock pass wins")
		short      = flag.Bool("short", false, "CI smoke mode: one run per scenario")
		only       = flag.String("scenario", "", "run only this golden scenario (quickstart, chaos, crash)")
		baseline   = flag.String("baseline", "", "earlier BENCH_run.json from this machine to compute speedup against")
		tolerance  = flag.Float64("tolerance", 0, "with -baseline: fail when a shared scenario's events/s drops below tolerance x baseline (0 disables; skipped with a caveat when the CPU counts differ)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement runs")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the measurement runs")
		shardsList = flag.String("shards", "", "comma-separated sharded-engine worker counts to also measure (e.g. 1,2,4,8)")
	)
	flag.Parse()
	opt := runbench.Options{Iterations: *iters}
	if *short {
		opt.Iterations = 1
		opt.MinWall = 50 * time.Millisecond
	}

	scs := scenarios.Golden()
	if *only != "" {
		sc, ok := scenarios.ByName(*only)
		if !ok {
			fatal(fmt.Sprintf("unknown scenario %q", *only))
		}
		scs = []scenarios.Scenario{sc}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err.Error())
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err.Error())
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Iterations: opt.Iterations,
		Scenarios:  map[string]runbench.Measurement{},
	}
	for _, sc := range scs {
		m, err := runbench.Measure(sc, opt)
		if err != nil {
			fatal(err.Error())
		}
		rep.Scenarios[sc.Name] = m
		fmt.Printf("%-10s %8.3fs wall  %7.1f sim-s/wall-s  %11.0f events/s  %6.1f allocs/read\n",
			sc.Name, m.WallSec, m.SimPerWall, m.EventsPerSec, m.AllocsPerRead)
	}

	if *shardsList != "" {
		counts, err := parseShards(*shardsList)
		if err != nil {
			fatal(err.Error())
		}
		// The matrix runs on the selected scenario (-scenario scale gives
		// the 1024×256 matrix), defaulting to the healthy quickstart.
		matrix := scenarios.Golden()[0]
		if *only != "" {
			matrix = scs[0]
		}
		var serial, widest runbench.Measurement
		widestN := 0
		for _, n := range counts {
			m, err := runbench.Measure(scenarios.WithShards(matrix, n), opt)
			if err != nil {
				fatal(err.Error())
			}
			rep.Sharded = append(rep.Sharded, m)
			fmt.Printf("%-18s %8.3fs wall  %7.1f sim-s/wall-s  %11.0f events/s  %6.1f allocs/read\n",
				m.Scenario, m.WallSec, m.SimPerWall, m.EventsPerSec, m.AllocsPerRead)
			if n == 1 {
				serial = m
			}
			if n > widestN {
				widestN, widest = n, m
			}
		}
		if serial.EventsPerSec > 0 && widestN > 1 {
			rep.SpeedupShards = widest.EventsPerSec / serial.EventsPerSec
			fmt.Printf("sharded speedup at %d workers vs shards=1: %.2fx\n", widestN, rep.SpeedupShards)
		}
		if runtime.NumCPU() < widestN {
			rep.ShardCaveat = fmt.Sprintf(
				"host has %d CPU(s), fewer than the widest shard count %d: parallel speedup is hardware-bound and not representative",
				runtime.NumCPU(), widestN)
			fmt.Println("caveat:", rep.ShardCaveat)
		}
	}

	var regressions []string
	if *baseline != "" {
		buf, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err.Error())
		}
		var base report
		if err := json.Unmarshal(buf, &base); err != nil {
			fatal(fmt.Sprintf("parsing %s: %v", *baseline, err))
		}
		rep.BaselinePath = *baseline
		bq, okB := base.Scenarios["quickstart"]
		nq, okN := rep.Scenarios["quickstart"]
		if okB && okN && bq.EventsPerSec > 0 {
			rep.BaselineEventsPerSec = bq.EventsPerSec
			rep.SpeedupHealthy = nq.EventsPerSec / bq.EventsPerSec
			fmt.Printf("healthy speedup vs %s: %.2fx\n", *baseline, rep.SpeedupHealthy)
		}
		if *tolerance > 0 {
			rep.Tolerance = *tolerance
			if base.NumCPU != rep.NumCPU {
				rep.BaselineCaveat = fmt.Sprintf(
					"baseline measured on %d CPU(s), this host has %d: regression gate skipped (the events/s ratio would measure hardware, not code)",
					base.NumCPU, rep.NumCPU)
				fmt.Println("caveat:", rep.BaselineCaveat)
			} else {
				names := make([]string, 0, len(base.Scenarios))
				for name := range base.Scenarios {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					bm := base.Scenarios[name]
					nm, ok := rep.Scenarios[name]
					if !ok || bm.EventsPerSec <= 0 {
						continue
					}
					ratio := nm.EventsPerSec / bm.EventsPerSec
					fmt.Printf("gate %-10s %.2fx of baseline events/s\n", name, ratio)
					if ratio < *tolerance {
						regressions = append(regressions, fmt.Sprintf(
							"%s: %.0f events/s is %.2fx of the baseline's %.0f (tolerance %.2f)",
							name, nm.EventsPerSec, ratio, bm.EventsPerSec, *tolerance))
					}
				}
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err.Error())
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err.Error())
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err.Error())
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err.Error())
	} else {
		fmt.Println("wrote", *out)
	}
	// The report is written even on failure: the JSON is the evidence a
	// human (or a CI artifact download) needs to see what regressed.
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "runbench: regression: "+r)
		}
		os.Exit(1)
	}
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-shards wants positive worker counts, got %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "runbench: "+msg)
	os.Exit(1)
}
