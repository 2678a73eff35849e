// Command perfbench is the repository's benchmark. It generates one
// workload's simulations from a seed, runs them serially on the default
// engine, checks every simulation's output, and prints each metric by
// name with its unit; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 432, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, memory,
// and the simulated read figures); with -trace 1 they are the per-layer
// ones, from traced passes run beside untraced ones. Every measured pass
// runs in a child process of its own (the same binary with -pass), so
// peak RSS covers a fixed amount of work. See README.md. From the
// repository root, run.py builds it and runs it:
//
//	python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"syscall"
	"time"
)

// metric is one reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 run, as BENCHMARK.json lists
// them.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"completed_frac", "fraction"},
	{"sim_read_mbps", "MB/s"},
	{"sim_read_p50_ms", "ms"},
	{"sim_read_p999_ms", "ms"},
	{"sim_slo_frac", "fraction"},
}

// perLayer are the metrics of a -trace 1 run, as BENCHMARK.json lists
// them.
var perLayer = []metric{
	{"sim.cpu_s", "s"}, {"mesh.cpu_s", "s"}, {"disk.cpu_s", "s"}, {"ufs.cpu_s", "s"},
	{"ionode.cpu_s", "s"}, {"pfs.cpu_s", "s"}, {"prefetch.cpu_s", "s"}, {"machine.cpu_s", "s"},
	{"workload.cpu_s", "s"}, {"gc.cpu_s", "s"}, {"other.cpu_s", "s"},
	{"machine.build_s", "s"}, {"pfs.create_s", "s"}, {"run.exec_s", "s"}, {"bench.verify_s", "s"},
	{"trace.overhead_frac", "fraction"},
	{"sim.events", "count"}, {"sim.host_ns_per_event", "ns"}, {"sim.max_queue_depth", "count"},
	{"sim.goroutines_left", "count"}, {"runtime.heap_retained_mb", "MB"},
	{"runtime.allocs_per_sim", "count"}, {"machine.allocs_per_build", "count"},
	{"mesh.messages", "count"}, {"mesh.latency_p50_ms", "ms"},
	{"disk.requests", "count"}, {"disk.busy_frac", "fraction"}, {"disk.queue_len_mean", "count"},
	{"disk.transient_errors", "count"},
	{"ufs.cache_hit_frac", "fraction"}, {"ufs.disk_ops", "count"},
	{"ionode.requests", "count"}, {"ionode.service_p99_ms", "ms"}, {"ionode.refused_frac", "fraction"},
	{"ionode.fair_max_lag", "cost"},
	{"pfs.stripe_requests", "count"}, {"pfs.retries", "count"}, {"pfs.token_wait_s", "s"},
	{"pfs.flush_sim_s", "s"},
	{"prefetch.issued", "count"}, {"prefetch.useful_frac", "fraction"}, {"prefetch.hit_frac", "fraction"},
	{"prefetch.wait_s", "s"}, {"prefetch.wb_stall_frac", "fraction"},
	{"sim_write_mbps", "MB/s"},
}

const (
	setupPasses = 3                 // setup passes per run; setup_s is their median
	minPasses   = 3                 // timed passes per run, whatever --seconds says
	maxPasses   = 40                // upper bound on passes of one kind
	budget      = 170 * time.Second // whole run, so it ends inside 180 s
)

func main() {
	name := flag.String("workload", "", "workload: paper-sweep, checkpoint-scale or tenant-overload")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "host seconds of measured passes")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of traced passes")
	pass := flag.String("pass", "", "run one pass (setup, timed or traced) and print its result; used by the parent process")
	flag.Parse()

	jobs, err := generate(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *pass != "" {
		r, err := runPass(*pass, jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := bench(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// child is one finished pass process.
type child struct {
	res   passResult
	rssMB float64 // the child's peak resident set
	kind  string
}

// runChild runs one pass in a child process and waits for it to end.
func runChild(ctx context.Context, kind, name string, seed int64) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-pass", kind, "-workload", name, "-seed", fmt.Sprint(seed))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", kind, err)
	}
	c := &child{kind: kind}
	if err := json.Unmarshal(stdout.Bytes(), &c.res); err != nil {
		return nil, fmt.Errorf("%s pass output: %w", kind, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

// bench runs the parent side: the setup passes, then timed passes (and
// with trace, traced passes alternating with them) for the given
// duration, and prints the report.
func bench(name string, seed int64, seconds time.Duration, trace bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	var setup []*child
	for len(setup) < setupPasses {
		c, err := runChild(ctx, passSetup, name, seed)
		if err != nil {
			return err
		}
		setup = append(setup, c)
	}
	var timed, traced []*child
	start := time.Now()
	for len(timed) < maxPasses {
		enough := time.Since(start) >= seconds
		if len(timed) >= minPasses && (!trace || len(traced) >= 2) && enough {
			break
		}
		c, err := runChild(ctx, passTimed, name, seed)
		if err != nil {
			return err
		}
		timed = append(timed, c)
		if trace {
			c, err := runChild(ctx, passTraced, name, seed)
			if err != nil {
				return err
			}
			traced = append(traced, c)
		}
	}
	return report(os.Stdout, setup, timed, traced, trace)
}

// report checks the passes against each other, then prints the metric
// table, the simulation digest and the result line.
func report(w io.Writer, setup, timed, traced []*child, trace bool) error {
	out := bufio.NewWriter(w)

	var attempted, failed int
	var problems []string
	digest := timed[0].res.Digest
	for _, c := range slices.Concat(setup, timed, traced) {
		if c.kind != passSetup {
			attempted += c.res.Sims
			failed += c.res.Failed
		}
		problems = append(problems, c.res.Errors...)
		if c.kind != passSetup && c.res.Digest != digest {
			problems = append(problems, fmt.Sprintf("%s pass sim_digest %s differs from %s", c.kind, c.res.Digest, digest))
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}

	first := timed[0].res
	values := map[string]float64{}
	if !trace {
		var walls, rss []float64
		for _, c := range timed {
			walls = append(walls, c.res.WallS)
			rss = append(rss, c.rssMB)
		}
		values["wall_s"] = median(walls)
		var setups []float64
		for _, c := range setup {
			setups = append(setups, c.res.SetupS)
		}
		values["setup_s"] = median(setups)
		values["peak_rss_mb"] = median(rss)
		values["completed_frac"] = ratio(float64(attempted-failed), float64(attempted))
		values["sim_read_mbps"] = ratio(float64(first.ReadBytes)/(1<<20), first.ReadElapsedS)
		values["sim_read_p50_ms"] = first.ReadP50S * 1e3
		values["sim_read_p999_ms"] = first.ReadP999S * 1e3
		values["sim_slo_frac"] = ratio(float64(first.SLOMet), float64(first.Offered))
	} else {
		var walls, tracedWalls []float64
		for _, c := range timed {
			walls = append(walls, c.res.WallS)
		}
		for _, c := range traced {
			tracedWalls = append(tracedWalls, c.res.WallS)
			for k, v := range c.res.Layers {
				values[k] += v / float64(len(traced))
			}
		}
		values["trace.overhead_frac"] = median(tracedWalls)/median(walls) - 1
	}

	metrics := endToEnd
	if trace {
		metrics = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := map[string]value{}
	for _, m := range metrics {
		v, ok := values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured", m.name)
		}
		result[m.name] = value{v, m.unit}
		fmt.Fprintf(out, "%-26s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(out, "%-26s %14s (%d simulations per pass, %d timed and %d traced passes, %d reads per pass)\n",
		"sim_digest", digest, first.Sims, len(timed), len(traced), first.Reads)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(problems) == 0, attempted, failed, result})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return out.Flush()
}
