// Command detgate is the CI determinism and allocation gate.
//
// Determinism: it runs the golden scenarios from internal/scenarios
// (healthy quickstart; a chaos variant with transient faults, shedding,
// and the retry layer armed; and a crash variant with whole-node
// outages, a RAID member loss, and the online rebuild under
// restart-aware failover) twice each, requires bit-identical result
// fingerprints and trace digests between the runs, and then diffs the
// digests against a committed golden file — so a change that silently
// moves the simulation's event history fails CI until the golden file is
// deliberately regenerated:
//
//	go run ./cmd/detgate -update
//
// Sharded engine: each golden scenario is additionally run on the
// sharded multi-core engine at worker counts 1, 2, 4, and 8. The
// shards=1 digests are recorded in the golden file (the sharded engine
// interleaves trace buckets differently from the legacy single kernel,
// so it has its own golden lines); the wider counts must be
// bit-identical to shards=1 — that equality is the determinism proof of
// the conservative-lookahead parallel scheduler, gated on every CI run.
//
// Event queue: the golden digests were recorded while the kernels ran
// on a binary-heap event queue. The ladder queue that replaced it
// realizes the identical (time, seq) total order, so matching the
// unchanged golden file is the end-to-end proof that it reproduces the
// heap's schedule; internal/sim keeps the heap as a test oracle for the
// queue-level differential.
//
// Allocation: with -allocs it shells out to `go test -bench` and asserts
// that the zero-allocation hot paths — the DES kernel and mesh micros,
// the ladder queue hold-model benches, the cross-shard post/drain path,
// plus the pfs client steady-state read and ionode service paths —
// still report 0 allocs/op.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/scenarios"
	"repro/internal/trace"
	"repro/internal/workload"
)

// digests runs the scenario once and returns (fingerprint, traceDigest).
func digests(sc scenarios.Scenario) (uint64, uint64, error) {
	tl := trace.NewLog(1 << 18)
	spec := scenarios.QuickstartSpec(tl)
	if sc.Tweak != nil {
		sc.Tweak(&spec)
	}
	res, err := workload.Run(sc.Config(), spec)
	if err != nil {
		return 0, 0, fmt.Errorf("%s run failed: %w", sc.Name, err)
	}
	if res.Fault.GiveUps != 0 {
		return 0, 0, fmt.Errorf("%s run exhausted %d retry budget(s) under transient faults", sc.Name, res.Fault.GiveUps)
	}
	return res.Fingerprint(), tl.Digest(), nil
}

func main() {
	var (
		golden = flag.String("golden", "cmd/detgate/golden.digest", "committed digest file to diff against")
		update = flag.Bool("update", false, "rewrite the golden file from this build's digests")
		allocs = flag.Bool("allocs", false, "also gate the zero-allocation hot-path benchmarks")
	)
	flag.Parse()

	var lines []string
	for _, sc := range scenarios.Golden() {
		fp1, td1, err := digests(sc)
		if err != nil {
			fatal(err.Error())
		}
		fp2, td2, err := digests(sc)
		if err != nil {
			fatal(err.Error())
		}
		if fp1 != fp2 || td1 != td2 {
			fatal(fmt.Sprintf("%s: two identical runs diverged: fingerprint %016x vs %016x, trace %016x vs %016x",
				sc.Name, fp1, fp2, td1, td2))
		}
		lines = append(lines,
			fmt.Sprintf("%s fingerprint %016x", sc.Name, fp1),
			fmt.Sprintf("%s trace %016x", sc.Name, td1))

		// Sharded matrix: shards=1 is golden; 2, 4, and 8 workers must
		// reproduce it bit for bit.
		sfp, std, err := digests(scenarios.WithShards(sc, 1))
		if err != nil {
			fatal(err.Error())
		}
		for _, n := range []int{2, 4, 8} {
			nfp, ntd, err := digests(scenarios.WithShards(sc, n))
			if err != nil {
				fatal(err.Error())
			}
			if nfp != sfp || ntd != std {
				fatal(fmt.Sprintf("%s: sharded run at %d workers diverged from shards=1: fingerprint %016x vs %016x, trace %016x vs %016x",
					sc.Name, n, nfp, sfp, ntd, std))
			}
		}
		lines = append(lines,
			fmt.Sprintf("%s-sharded fingerprint %016x", sc.Name, sfp),
			fmt.Sprintf("%s-sharded trace %016x", sc.Name, std))
	}
	got := strings.Join(lines, "\n") + "\n"

	if *update {
		if err := os.WriteFile(*golden, []byte(got), 0o644); err != nil {
			fatal(err.Error())
		}
		fmt.Printf("detgate: wrote %s\n%s", *golden, got)
	} else {
		want, err := os.ReadFile(*golden)
		if err != nil {
			fatal(fmt.Sprintf("%v (regenerate with -update)", err))
		}
		if string(want) != got {
			fatal(fmt.Sprintf("digests diverged from %s:\n--- committed\n%s--- this build\n%s"+
				"the simulation's event history changed; if intended, regenerate with: go run ./cmd/detgate -update",
				*golden, want, got))
		}
		fmt.Printf("detgate: digests match %s\n", *golden)
	}

	if *allocs {
		gateAllocs()
	}
}

// allocGatePackages lists each gated package with its benchmark filter.
// Splitting per package keeps the -bench regexps anchored so unrelated
// benchmarks in the same package can't sneak into the gate.
var allocGatePackages = []struct {
	pkg   string
	bench string
}{
	{"./internal/sim/", "BenchmarkEventThroughput$|BenchmarkProcWake$|BenchmarkShardPostDrain$|BenchmarkQueuePushPop/ladder/depth=(1k|100k)$"},
	{"./internal/mesh/", "BenchmarkSend$"},
	{"./internal/pfs/", "BenchmarkClientSteadyRead$"},
	{"./internal/ionode/", "BenchmarkServicePath$"},
}

// zeroAllocBenches are the hot paths pinned at 0 allocs/op. Names are
// matched as the benchmark-name prefix of `go test -bench` output lines
// (which append -N for GOMAXPROCS).
var zeroAllocBenches = map[string]bool{
	"BenchmarkEventThroughput":                true, // sim.Kernel event dispatch
	"BenchmarkProcWake":                       true, // sim.Proc coroutine wake cycle
	"BenchmarkShardPostDrain":                 true, // cross-shard post/drain round trip
	"BenchmarkQueuePushPop/ladder/depth=1k":   true, // ladder queue hold model, shallow
	"BenchmarkQueuePushPop/ladder/depth=100k": true, // ladder queue hold model, deep
	"BenchmarkSend":                           true, // mesh message delivery
	"BenchmarkClientSteadyRead":               true, // pfs client steady-state read path
	"BenchmarkServicePath":                    true, // ionode request service path
}

func gateAllocs() {
	// One `go test` per package: -bench regexps are slash-split into
	// per-level patterns (sub-benchmark paths like
	// QueuePushPop/ladder/depth=1k), so filters from different packages
	// cannot be joined with | without scrambling the levels.
	seen := 0
	for _, g := range allocGatePackages {
		cmd := exec.Command("go", "test", "-run=^$", "-benchtime=100x", "-benchmem",
			"-bench="+g.bench, g.pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			fatal(fmt.Sprintf("alloc gate: benchmarks failed in %s: %v\n%s", g.pkg, err, out))
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
				continue
			}
			name := strings.SplitN(f[0], "-", 2)[0]
			if !zeroAllocBenches[name] {
				continue
			}
			seen++
			if f[len(f)-1] != "allocs/op" || f[len(f)-2] != "0" {
				fatal(fmt.Sprintf("alloc gate: %s is no longer allocation-free:\n%s", name, line))
			}
		}
	}
	if seen != len(zeroAllocBenches) {
		fatal(fmt.Sprintf("alloc gate: matched %d of %d gated benchmarks across packages",
			seen, len(zeroAllocBenches)))
	}
	fmt.Println("detgate: hot paths still 0 allocs/op")
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "detgate: "+msg)
	os.Exit(1)
}
