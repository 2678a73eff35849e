package experiments

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/twophase"
	"repro/internal/workload"
)

// ExtModes evaluates prefetching under every I/O mode — the paper's
// stated future work ("we plan to implement prefetching in other file I/O
// modes"). Shared unordered pointers (M_UNIX, M_LOG) admit no per-node
// prediction, so the prototype stays idle there; M_SYNC uses the
// round-total heuristic and M_GLOBAL reads ahead for the broadcast root.
func ExtModes(s Scale) (*stats.Table, error) {
	t := stats.NewTable("Extension: prefetching across I/O modes (64KB requests, 50ms compute)",
		"Mode", "No prefetching (MB/s)", "Prefetching (MB/s)", "Speedup", "Hit rate", "Issued")
	modes := []pfs.Mode{pfs.MUnix, pfs.MLog, pfs.MSync, pfs.MRecord, pfs.MGlobal, pfs.MAsync}
	results, err := runCells(s, len(modes)*2, func(i int) (*workload.Result, error) {
		mode := modes[i/2]
		spec := workload.Spec{
			FileSize:     s.FileBytes / 4,
			RequestSize:  64 << 10,
			Mode:         mode,
			ComputeDelay: 50 * sim.Millisecond,
		}
		variant := "plain"
		if i%2 == 1 {
			pcfg := prefetch.DefaultConfig()
			spec.Prefetch = &pcfg
			variant = "prefetch"
		}
		res, err := workload.Run(s.machineConfig(), spec)
		if err != nil {
			return nil, fmt.Errorf("ext-modes %s/%v: %w", variant, mode, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for r, mode := range modes {
		plain, fetched := results[2*r], results[2*r+1]
		t.AddRow(mode.String(), plain.Bandwidth, fetched.Bandwidth,
			fetched.Bandwidth/plain.Bandwidth, fetched.Prefetch.HitRate(), fetched.Prefetch.Issued)
	}
	return t, nil
}

// ExtTwoPhase compares three ways to deliver an interleaved record
// distribution: the direct M_RECORD read, the same read under the
// prefetching prototype, and the two-phase strategy of the paper's
// reference [1] (large conforming reads + mesh redistribution). Small
// records are where the strategies diverge.
func ExtTwoPhase(s Scale) (*stats.Table, error) {
	t := stats.NewTable("Extension: direct vs prefetching vs two-phase collective read",
		"Record (KB)", "Direct (MB/s)", "Prefetching (MB/s)", "Two-phase (MB/s)")
	fileSize := s.FileBytes / 4
	recs := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	bws, err := runCells(s, len(recs)*3, func(i int) (float64, error) {
		rec := recs[i/3]
		switch i % 3 {
		case 0:
			direct, err := workload.Run(s.machineConfig(), workload.Spec{FileSize: fileSize, RequestSize: rec, Mode: pfs.MRecord})
			if err != nil {
				return 0, fmt.Errorf("ext-twophase direct/%d: %w", rec, err)
			}
			return direct.Bandwidth, nil
		case 1:
			pcfg := prefetch.DefaultConfig()
			fetched, err := workload.Run(s.machineConfig(), workload.Spec{FileSize: fileSize, RequestSize: rec, Mode: pfs.MRecord, Prefetch: &pcfg})
			if err != nil {
				return 0, fmt.Errorf("ext-twophase prefetch/%d: %w", rec, err)
			}
			return fetched.Bandwidth, nil
		default:
			m := machine.Build(s.machineConfig())
			if err := m.FS.Create("f", fileSize); err != nil {
				return 0, err
			}
			tp, err := twophase.Read(m, "f", rec, s.Compute, twophase.DefaultConfig())
			if err != nil {
				return 0, fmt.Errorf("ext-twophase twophase/%d: %w", rec, err)
			}
			return stats.MBps(tp.TotalBytes, tp.Elapsed), nil
		}
	})
	if err != nil {
		return nil, err
	}
	for r, rec := range recs {
		t.AddRow(rec>>10, bws[3*r], bws[3*r+1], bws[3*r+2])
	}
	return t, nil
}

// ExtWriteBehind evaluates the write-side mirror of the prototype:
// synchronous writes vs staged write-behind, across compute delays.
func ExtWriteBehind(s Scale) (*stats.Table, error) {
	t := stats.NewTable("Extension: write-behind (64KB records, partitioned writers)",
		"Delay (s)", "Synchronous (MB/s)", "Write-behind (MB/s)", "Speedup", "Stalls")
	fileSize := s.FileBytes / 4
	type cell struct {
		bw     float64
		stalls int64
	}
	cells, err := runCells(s, len(s.Delays)*2, func(i int) (cell, error) {
		delay := s.Delays[i/2]
		behind := i%2 == 1
		elapsed, st, err := writeRun(s, fileSize, 64<<10, delay, behind)
		if err != nil {
			return cell{}, fmt.Errorf("ext-writebehind %v/%v: %w", delay, behind, err)
		}
		return cell{stats.MBps(fileSize, elapsed), st}, nil
	})
	if err != nil {
		return nil, err
	}
	for r, delay := range s.Delays {
		sync, behind := cells[2*r], cells[2*r+1]
		t.AddRow(delay.Seconds(), sync.bw, behind.bw, behind.bw/sync.bw, behind.stalls)
	}
	return t, nil
}

// writeRun has every node write its contiguous partition of a shared
// file in 64 KB records, optionally through write-behind staging.
func writeRun(s Scale, fileSize, rec int64, delay sim.Time, behind bool) (sim.Time, int64, error) {
	m := machine.Build(s.machineConfig())
	if err := m.FS.Create("f", fileSize); err != nil {
		return 0, 0, err
	}
	var wb *prefetch.WriteBehind
	if behind {
		wb = prefetch.NewWriteBehind(m.K, prefetch.DefaultWriteBehindConfig())
	}
	parties := s.Compute
	share := fileSize / int64(parties)
	errs := make([]error, parties)
	for i := 0; i < parties; i++ {
		i := i
		m.K.Go(fmt.Sprintf("writer%d", i), func(p *sim.Proc) {
			errs[i] = func() error {
				f, err := m.FS.Open("f", m.Compute[i], pfs.MAsync, nil)
				if err != nil {
					return err
				}
				defer f.Close()
				start := int64(i) * share
				for off := start; off < start+share; off += rec {
					if behind {
						if err := wb.Write(p, f, off, rec); err != nil {
							return err
						}
					} else if err := f.Write(p, off, rec); err != nil {
						return err
					}
					if delay > 0 {
						p.Sleep(delay)
					}
				}
				if behind {
					return wb.Flush(p, f)
				}
				return nil
			}()
		})
	}
	if err := m.Run(); err != nil {
		return 0, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	var stalls int64
	if wb != nil {
		stalls = wb.Stalls
	}
	return m.K.Now(), stalls, nil
}

// ExtAdaptive evaluates the adaptive throttle: the prototype issues
// read-ahead only when the application's observed compute gap gives it a
// head start. It should match plain Fast Path at zero delay (no
// overhead) and the standard prototype once overlap exists.
func ExtAdaptive(s Scale) (*stats.Table, error) {
	t := stats.NewTable("Extension: adaptive prefetch throttling (M_RECORD, 64KB requests)",
		"Delay (s)", "Plain (MB/s)", "Prefetch (MB/s)", "Adaptive (MB/s)", "Throttled")
	variants := []string{"plain", "std", "adaptive"}
	results, err := runCells(s, len(s.Delays)*len(variants), func(i int) (*workload.Result, error) {
		delay := s.Delays[i/len(variants)]
		variant := variants[i%len(variants)]
		spec := workload.Spec{
			FileSize:     s.FileBytes / 4,
			RequestSize:  64 << 10,
			Mode:         pfs.MRecord,
			ComputeDelay: delay,
		}
		switch variant {
		case "std":
			pcfg := prefetch.DefaultConfig()
			spec.Prefetch = &pcfg
		case "adaptive":
			acfg := prefetch.DefaultConfig()
			acfg.Adaptive = true
			spec.Prefetch = &acfg
		}
		res, err := workload.Run(s.machineConfig(), spec)
		if err != nil {
			return nil, fmt.Errorf("ext-adaptive %s/%v: %w", variant, delay, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	for r, delay := range s.Delays {
		plain, std, adapt := results[3*r], results[3*r+1], results[3*r+2]
		t.AddRow(delay.Seconds(), plain.Bandwidth, std.Bandwidth, adapt.Bandwidth,
			adapt.Prefetch.Throttled)
	}
	return t, nil
}

// ExtInterference runs two independent applications on disjoint halves of
// the compute partition, sharing the I/O nodes: a balanced reader (the
// "victim") and an I/O-bound scanner (the "aggressor"). It measures how
// much of the victim's prefetching benefit survives a noisy neighbour.
func ExtInterference(s Scale) (*stats.Table, error) {
	t := stats.NewTable("Extension: prefetching under multi-application interference (64KB, 50ms compute victim)",
		"Scenario", "Victim B/W (MB/s)", "Victim hit rate")
	type scenario struct {
		name      string
		prefetch  bool
		aggressor bool
	}
	scenarios := []scenario{
		{"alone, no prefetch", false, false},
		{"alone, prefetch", true, false},
		{"shared I/O nodes, no prefetch", false, true},
		{"shared I/O nodes, prefetch", true, true},
	}
	type cell struct {
		bw, hit float64
	}
	cells, err := runCells(s, len(scenarios), func(i int) (cell, error) {
		sc := scenarios[i]
		bw, hit, err := interferenceRun(s, sc.prefetch, sc.aggressor)
		if err != nil {
			return cell{}, fmt.Errorf("ext-interference %q: %w", sc.name, err)
		}
		return cell{bw, hit}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scenarios {
		t.AddRow(sc.name, cells[i].bw, cells[i].hit)
	}
	return t, nil
}

// interferenceRun drives the victim on the first half of the compute
// nodes and, optionally, the aggressor on the second half, both against
// the same I/O nodes. Returns the victim's bandwidth and hit rate.
func interferenceRun(s Scale, withPrefetch, withAggressor bool) (float64, float64, error) {
	m := machine.Build(s.machineConfig())
	half := s.Compute / 2
	if half == 0 {
		half = 1
	}
	victimBytes := int64(half) * (64 << 10) * s.Rounds * 2
	if err := m.FS.Create("victim", victimBytes); err != nil {
		return 0, 0, err
	}
	var pf *prefetch.Prefetcher
	if withPrefetch {
		pf = prefetch.New(m.K, prefetch.DefaultConfig())
	}
	group := pfs.NewOpenGroup(m.K, half)
	errs := make([]error, s.Compute)
	var victimEnd sim.Time
	var victimRead int64
	for i := 0; i < half; i++ {
		i := i
		m.K.Go(fmt.Sprintf("victim%d", i), func(p *sim.Proc) {
			errs[i] = func() error {
				f, err := m.FS.Open("victim", m.Compute[i], pfs.MRecord, group)
				if err != nil {
					return err
				}
				defer f.Close()
				if pf != nil {
					pf.Attach(f)
				}
				for {
					n, err := f.Read(p, 64<<10)
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					victimRead += n
					p.Sleep(50 * sim.Millisecond)
				}
			}()
			if p.Now() > victimEnd {
				victimEnd = p.Now()
			}
		})
	}
	if withAggressor {
		aggBytes := int64(s.Compute-half) * (64 << 10) * s.Rounds * 4
		if err := m.FS.Create("aggressor", aggBytes); err != nil {
			return 0, 0, err
		}
		aggGroup := pfs.NewOpenGroup(m.K, s.Compute-half)
		for i := half; i < s.Compute; i++ {
			i := i
			m.K.Go(fmt.Sprintf("aggressor%d", i), func(p *sim.Proc) {
				errs[i] = func() error {
					f, err := m.FS.Open("aggressor", m.Compute[i], pfs.MRecord, aggGroup)
					if err != nil {
						return err
					}
					defer f.Close()
					for {
						if _, err := f.Read(p, 64<<10); err == io.EOF {
							return nil
						} else if err != nil {
							return err
						}
					}
				}()
			})
		}
	}
	if err := m.Run(); err != nil {
		return 0, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	bw := stats.MBps(victimRead, victimEnd)
	hit := 0.0
	if pf != nil {
		hit = pf.HitRate()
	}
	return bw, hit, nil
}

// ExtScale grows the machine — the paper's other stated future work
// ("evaluate the performance of prefetching on much larger systems") —
// and sweeps I/O mode × machine size up the Scale.Ladder to find where
// each mode's coordination cost breaks. The modes order by how much
// they serialize: M_UNIX holds the shared-pointer token across the
// whole I/O, M_LOG only across the claim, M_RECORD coordinates rounds
// without a token, M_ASYNC coordinates nothing. The token columns
// record the collapse: waits per acquisition and queued time per
// acquisition grow with the client count for M_UNIX while per-node
// bandwidth falls away, which is the serialization wall the stripe-group
// tiling and bounded I/O-group partition exist to avoid. Files stripe
// over a ≤16-node group so declustering cost stays fixed as the machine
// grows and the sweep isolates coordination, not stripe width.
func ExtScale(s Scale) (*stats.Table, error) {
	t := stats.NewTable("Extension: I/O-mode coordination cost vs machine size (64KB requests, stripe group <=16)",
		"Nodes (C+IO)", "Mode", "Aggregate (MB/s)", "Per node (MB/s)",
		"Token waits/op", "Token wait (ms/op)", "Events")
	modes := []pfs.Mode{pfs.MUnix, pfs.MLog, pfs.MRecord, pfs.MAsync}
	type cell struct {
		bw, waitsPerOp, waitMsPerOp float64
		events                      uint64
	}
	cells, err := runCells(s, len(s.Ladder)*len(modes), func(i int) (cell, error) {
		c := s.Ladder[i/len(modes)]
		mode := modes[i%len(modes)]
		io := c / 4
		if io < 2 {
			io = 2
		}
		cfg := s.machineConfig()
		cfg.ComputeNodes = c
		cfg.IONodes = io
		sg := io
		if sg > 16 {
			sg = 16
		}
		spec := workload.Spec{
			FileSize:    int64(c) * (64 << 10) * s.Rounds,
			RequestSize: 64 << 10,
			Mode:        mode,
			StripeGroup: sg,
		}
		res, err := workload.Run(cfg, spec)
		if err != nil {
			return cell{}, fmt.Errorf("ext-scale %v/%d: %w", mode, c, err)
		}
		out := cell{bw: res.Bandwidth, events: res.Machine.Executed()}
		if res.TokenOps > 0 {
			out.waitsPerOp = float64(res.TokenWaits) / float64(res.TokenOps)
			out.waitMsPerOp = res.TokenWaitTime.Seconds() * 1e3 / float64(res.TokenOps)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for r, c := range s.Ladder {
		io := c / 4
		if io < 2 {
			io = 2
		}
		for m, mode := range modes {
			cl := cells[r*len(modes)+m]
			t.AddRow(fmt.Sprintf("%d+%d", c, io), mode.String(), cl.bw,
				cl.bw/float64(c), cl.waitsPerOp, cl.waitMsPerOp, cl.events)
		}
	}
	return t, nil
}
