package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/stats"
)

// Pass kinds. Each pass runs in a process of its own, so its peak RSS
// covers exactly one pass over the workload's list.
const (
	passSetup  = "setup"  // build machines and create files only, repeatedly
	passTimed  = "timed"  // run and check every simulation, tracing off
	passTraced = "traced" // the timed pass with CPU profile, spans and counters
)

// A setup pass repeats the whole list's setup at least setupMinReps
// times and until setupMinSeconds of it have been measured, so that a
// setup of a few milliseconds is still the median of a second of work.
const (
	setupMinReps    = 7
	setupMinSeconds = 1.0
	setupMaxReps    = 1000
)

// passResult is what one pass reports to the parent, as one JSON line.
type passResult struct {
	Sims   int      `json:"sims"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"` // the first few failures

	SetupS float64 `json:"setup_s,omitempty"`
	WallS  float64 `json:"wall_s,omitempty"`
	Digest string  `json:"digest,omitempty"`

	// Simulated read totals over the list.
	ReadBytes    int64   `json:"read_bytes,omitempty"`
	ReadElapsedS float64 `json:"read_elapsed_s,omitempty"`
	Reads        int     `json:"reads,omitempty"`
	ReadP50S     float64 `json:"read_p50_s,omitempty"`
	ReadP999S    float64 `json:"read_p999_s,omitempty"`
	SLOMet       int64   `json:"slo_met,omitempty"`
	Offered      int64   `json:"offered,omitempty"`

	Layers map[string]float64 `json:"layers,omitempty"` // traced passes only
}

func (r *passResult) fail(i int, err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf("simulation %d: %v", i, err))
	}
}

// runPass executes one pass of the given kind over the list.
func runPass(kind string, jobs []job) (*passResult, error) {
	switch kind {
	case passSetup:
		return setupPass(jobs, nil), nil
	case passTimed:
		return timedPass(jobs, nil), nil
	case passTraced:
		return tracedPass(jobs)
	}
	return nil, fmt.Errorf("unknown pass %q", kind)
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// setupPass times machine.Build plus file creation for every input,
// repeatedly, and reports the median total. With a tally it makes one
// repetition and records the build and create spans and allocations.
func setupPass(jobs []job, t *tally) *passResult {
	r := &passResult{Sims: len(jobs)}
	var totals []float64
	var spent float64
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || spent < setupMinSeconds); rep++ {
		var total float64
		for i, j := range jobs {
			var ms runtime.MemStats
			if t != nil {
				runtime.ReadMemStats(&ms)
			}
			build, create, err := j.setup()
			if err != nil && rep == 0 {
				r.fail(i, err)
			}
			total += build + create
			if t != nil {
				mallocs := ms.Mallocs
				runtime.ReadMemStats(&ms)
				t.buildAllocs += ms.Mallocs - mallocs
				t.buildS += build
				t.createS += create
			}
		}
		totals = append(totals, total)
		spent += total
		if t != nil {
			break
		}
	}
	r.SetupS = median(totals)
	return r
}

// timedPass runs and checks every simulation once. wall_s counts only
// the simulation calls; checking and bookkeeping are outside it. With a
// tally it also records the run and verify spans and the layer counters.
func timedPass(jobs []job, t *tally) *passResult {
	r := &passResult{Sims: len(jobs)}
	digest := fnv.New64a()
	var reads stats.Histogram
	var readElapsed float64
	var ms runtime.MemStats
	for i, j := range jobs {
		if t != nil {
			runtime.ReadMemStats(&ms)
			t.simAllocs -= ms.Mallocs
		}
		start := time.Now()
		out, err := runJob(j)
		exec := since(start)
		r.WallS += exec
		if t != nil {
			runtime.ReadMemStats(&ms)
			t.simAllocs += ms.Mallocs
		}
		start = time.Now()
		if err == nil {
			err = j.check(out)
		}
		var fp uint64
		if err != nil {
			r.fail(i, err)
		} else {
			fp = out.res.Fingerprint()
			out.reads.Each(reads.Observe)
			r.ReadBytes += out.readBytes
			readElapsed += out.readElapsed.Seconds()
			r.SLOMet += out.sloMet
			r.Offered += out.offered
		}
		digest.Write(binary.LittleEndian.AppendUint64(nil, fp))
		if t != nil {
			t.verifyS += since(start)
			t.execS += exec
			if err == nil {
				t.add(out)
			}
		}
	}
	r.Digest = fmt.Sprintf("%016x", digest.Sum64())
	r.ReadElapsedS = readElapsed
	r.Reads = reads.N()
	r.ReadP50S = reads.Quantile(0.5)
	r.ReadP999S = reads.Quantile(0.999)
	if beyond := r.Reads - int(math.Ceil(0.999*float64(r.Reads))); beyond < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf("%d reads leave %d beyond p99.9, need 10", r.Reads, beyond))
	}
	return r
}

// runJob runs one simulation, turning a panic into its error.
func runJob(j job) (out *outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return j.run()
}

// tracedPass is a setup pass and a timed pass with tracing on: spans
// around the benchmark's calls into each layer, the layers' public
// counters, runtime statistics, and a CPU profile attributed to layers.
func tracedPass(jobs []job) (*passResult, error) {
	t := &tally{}
	setup := setupPass(jobs, t)

	runtime.GC()
	goroutines := runtime.NumGoroutine()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	r := timedPass(jobs, t)
	pprof.StopCPUProfile()

	left := runtime.NumGoroutine() - goroutines
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return nil, err
	}
	r.Errors = append(r.Errors, setup.Errors...)
	r.Layers = t.metrics(len(jobs), cpu)
	r.Layers["sim.goroutines_left"] = float64(left)
	r.Layers["runtime.heap_retained_mb"] = float64(after.HeapInuse) / (1 << 20)
	return r, nil
}
