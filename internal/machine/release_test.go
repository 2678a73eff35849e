package machine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// TestRunReleasesGoroutines: whatever way a run ends, Machine.Run leaves
// no goroutine behind — not the daemons (disk servers, ART loops), not a
// process blocked by a deadlock, not a sharded worker.
func TestRunReleasesGoroutines(t *testing.T) {
	crash := func(cfg *Config) {
		cfg.PFS.Retry = pfs.RetryPolicy{
			MaxRetries: 8,
			Timeout:    200 * sim.Millisecond,
			Backoff:    2 * sim.Millisecond,
			BackoffMax: 50 * sim.Millisecond,
			Seed:       1,
			DownPoll:   10 * sim.Millisecond,
		}
		cfg.Crash = CrashPlan{Count: 1, Seed: 3, Start: 10 * sim.Millisecond,
			Window: 10 * sim.Millisecond, Downtime: 150 * sim.Millisecond}
	}
	cases := []struct {
		name    string
		shards  int
		tweak   func(*Config)
		extra   func(m *Machine) // an additional process to start
		wantErr string
	}{
		{name: "legacy"},
		{name: "shards=1", shards: 1},
		{name: "shards=4", shards: 4},
		{name: "crash", tweak: crash},
		{name: "crash/shards=4", shards: 4, tweak: crash},
		{name: "panic", wantErr: "panicked", extra: func(m *Machine) {
			m.K.Go("bomb", func(p *sim.Proc) {
				p.Sleep(5 * sim.Millisecond)
				panic("boom")
			})
		}},
		{name: "deadlock", wantErr: "deadlock", extra: func(m *Machine) {
			q := sim.NewQueue[int](m.K)
			m.K.Go("stuck", func(p *sim.Proc) { q.Get(p) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC()
			before := runtime.NumGoroutine()

			cfg := DefaultConfig()
			cfg.ComputeNodes, cfg.IONodes = 4, 4
			cfg.Shards = tc.shards
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			m := Build(cfg)
			startReaders(t, m, cfg.ComputeNodes)
			if tc.extra != nil {
				tc.extra(m)
			}
			err := m.Run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Run = %v, want an error containing %q", err, tc.wantErr)
			}
			if m.K.Live() < m.K.Daemons() || m.K.Daemons() == 0 {
				t.Fatalf("census after release: live %d daemons %d", m.K.Live(), m.K.Daemons())
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%d goroutines after Run, %d before", after, before)
			}
		})
	}
}

// startReaders starts one prefetching reader per compute node over a
// shared file, so the run starts disk servers and ART daemons.
func startReaders(t *testing.T, m *Machine, nodes int) {
	t.Helper()
	const req = 64 << 10
	if err := m.FS.Create("f", int64(nodes)*4*req); err != nil {
		t.Fatal(err)
	}
	pf := prefetch.New(m.K, prefetch.DefaultConfig())
	for i := 0; i < nodes; i++ {
		node := m.Compute[i]
		m.K.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			f, err := m.FS.Open("f", node, pfs.MAsync, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			pf.Attach(f)
			for {
				if _, err := f.Read(p, req); err != nil {
					if err != io.EOF {
						t.Error(err)
					}
					return
				}
				p.Sleep(sim.Millisecond)
			}
		})
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// to want and returns the last count read. A sharded run's workers have
// signalled their exit when Run returns but may still be unwinding, so
// a single read can see them.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
