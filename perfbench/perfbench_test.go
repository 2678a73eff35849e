package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/pfs"
)

// TestPlantedDigestFails shows the delivery check catches a node that
// received the wrong byte ranges: the real expectation passes, and the
// same expectation with one planted wrong digest (or byte count) fails.
func TestPlantedDigestFails(t *testing.T) {
	jobs, err := generate(paperSweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	var j *readJob
	for _, jb := range jobs {
		if rj := jb.(*readJob); rj.spec.Mode == pfs.MRecord && rj.spec.Prefetch != nil {
			j = rj
			break
		}
	}
	if j == nil {
		t.Fatal("no prefetched M_RECORD simulation in the list")
	}
	out, err := j.run()
	if err != nil {
		t.Fatal(err)
	}
	want := expectRead(j.spec, j.cfg.ComputeNodes)
	if err := checkRead(out.res, want); err != nil {
		t.Fatalf("true expectation fails: %v", err)
	}

	planted := want
	planted.digests = append([]uint64(nil), want.digests...)
	planted.digests[len(planted.digests)-1] ^= 1
	if err := checkRead(out.res, planted); err == nil {
		t.Fatal("check passed with a planted wrong digest")
	}
	short := want
	short.bytes -= j.spec.RequestSize
	if err := checkRead(out.res, short); err == nil {
		t.Fatal("check passed with a planted wrong byte count")
	}
}

// TestEveryJobChecks runs a few simulations of each workload and
// requires every output check to pass.
func TestEveryJobChecks(t *testing.T) {
	for _, name := range []string{paperSweep, checkpointScale, tenantOverload} {
		jobs, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs[:2] {
			out, err := runJob(j)
			if err == nil {
				err = j.check(out)
			}
			if err != nil {
				t.Errorf("%s simulation %d: %v", name, i, err)
			}
		}
	}
}

// TestGenerateIsPure requires the inputs to be a function of the seed.
func TestGenerateIsPure(t *testing.T) {
	for _, name := range []string{paperSweep, checkpointScale, tenantOverload} {
		a, _ := generate(name, 3)
		b, _ := generate(name, 3)
		c, _ := generate(name, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 generated two different lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 generated the same list", name)
		}
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// in step with the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, err := generate(w.Name, 1); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	same := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s [%s] here, %s [%s] in BENCHMARK.json",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, def.EndToEnd)
	same("per_layer", perLayer, def.PerLayer)
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Kernel).RunUntil":   "sim",
		"repro/internal/sim.wakeProc":             "sim",
		"repro/internal/prefetch.(*Prefetcher).X": "prefetch",
		"repro/internal/stats.(*Histogram).sort":  otherBucket,
		"repro/internal/runbench/scenarios.Scale": otherBucket,
		"main.timedPass":                          otherBucket,
		"runtime.chanrecv":                        "",
		"sort.Float64s":                           "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink int

// TestCPUByLayerDecodes profiles a busy loop and checks the decoder
// accounts for its CPU time (the test's own frames are outside the repo
// layers, so everything lands in the gc bucket).
func TestCPUByLayerDecodes(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("profiler busy:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			spinSink += i
		}
	}
	pprof.StopCPUProfile()
	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu[gcBucket] < 0.1 {
		t.Errorf("decoded %v s of a 0.3 s spin", cpu)
	}
	if _, err := cpuByLayer([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}
