package main

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// tally accumulates a traced pass's spans and the layers' public
// counters over every simulation of the list.
type tally struct {
	// Host-time spans around the benchmark's calls, seconds.
	buildS, createS, execS, verifyS float64
	buildAllocs, simAllocs          uint64

	events   uint64
	maxDepth int

	meshMessages int64
	meshLatency  stats.Histogram

	diskRequests, diskTransient int64
	diskBusy, diskSpan          float64 // busy and available disk-seconds
	diskQueueSum                float64
	diskQueueN                  int

	ufsHits, ufsMisses, ufsDiskOps int64

	ionodeRequests, ionodeRefused int64
	ionodeService                 stats.Histogram
	fairMaxLag                    float64 // in units of the largest request cost

	stripeRequests, retries int64
	tokenWait               sim.Time

	pfIssued, pfUseful, pfServed int64
	pfWait                       float64

	wbWrites, wbStalls int64
	flush              sim.Time
	writeBytes         int64
	writeWindow        sim.Time
}

// add folds one simulation's counters into the tally.
func (t *tally) add(out *outcome) {
	m := out.res.Machine
	t.events += m.Executed()
	t.maxDepth = max(t.maxDepth, m.MaxQueueDepth())

	t.meshMessages += m.Mesh.Messages
	m.Mesh.Latency.Each(t.meshLatency.Observe)

	now := m.K.Now()
	for _, a := range m.Arrays {
		for _, d := range a.Members() {
			t.diskRequests += d.Requests
			t.diskTransient += d.TransientErrors
			t.diskBusy += d.Busy.Busy(now).Seconds()
			t.diskSpan += now.Seconds()
			t.diskQueueSum += d.QueueLen.Sum()
			t.diskQueueN += d.QueueLen.N()
		}
	}
	for _, s := range m.Servers {
		fs := s.FS()
		t.ufsHits += fs.CacheHits
		t.ufsMisses += fs.CacheMisses
		t.ufsDiskOps += fs.DiskOps
		t.ionodeRequests += s.Requests
		t.ionodeRefused += s.Shed + s.Throttled
		s.Service.Each(t.ionodeService.Observe)
		if snap := s.FairSnapshot(); snap != nil && snap.MaxWeightedCost > 0 {
			t.fairMaxLag = max(t.fairMaxLag, float64(snap.MaxLag)/float64(snap.MaxWeightedCost))
		}
	}

	fs := m.FS
	t.stripeRequests += fs.StripeRequests
	t.retries += fs.Retries
	t.tokenWait += fs.TokenWaitTime

	if pf := out.res.Prefetch; pf != nil {
		t.pfIssued += pf.Issued
		t.pfUseful += pf.Hits + pf.HitsInWait
		t.pfServed += pf.Hits + pf.HitsInWait + pf.Misses + pf.Fallbacks
		t.pfWait += pf.WaitTime.Sum()
	}
	if wb := out.wb; wb != nil {
		t.wbWrites += wb.Writes
		t.wbStalls += wb.Stalls
	}
	t.flush += out.flushTime
	t.writeBytes += out.writeBytes
	t.writeWindow += out.writeWindow
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics reports the tally under the per-layer metric names of
// BENCHMARK.json; cpu is the profile's seconds per layer.
func (t *tally) metrics(sims int, cpu map[string]float64) map[string]float64 {
	out := map[string]float64{
		"machine.build_s":          t.buildS,
		"pfs.create_s":             t.createS,
		"run.exec_s":               t.execS,
		"bench.verify_s":           t.verifyS,
		"machine.allocs_per_build": ratio(float64(t.buildAllocs), float64(sims)),
		"runtime.allocs_per_sim":   ratio(float64(t.simAllocs), float64(sims)),

		"sim.events":            float64(t.events),
		"sim.host_ns_per_event": ratio(t.execS*1e9, float64(t.events)),
		"sim.max_queue_depth":   float64(t.maxDepth),

		"mesh.messages":       float64(t.meshMessages),
		"mesh.latency_p50_ms": t.meshLatency.Quantile(0.5) * 1e3,

		"disk.requests":         float64(t.diskRequests),
		"disk.busy_frac":        ratio(t.diskBusy, t.diskSpan),
		"disk.queue_len_mean":   ratio(t.diskQueueSum, float64(t.diskQueueN)),
		"disk.transient_errors": float64(t.diskTransient),

		"ufs.cache_hit_frac": ratio(float64(t.ufsHits), float64(t.ufsHits+t.ufsMisses)),
		"ufs.disk_ops":       float64(t.ufsDiskOps),

		"ionode.requests":       float64(t.ionodeRequests),
		"ionode.service_p99_ms": t.ionodeService.Quantile(0.99) * 1e3,
		"ionode.refused_frac":   ratio(float64(t.ionodeRefused), float64(t.ionodeRequests)),
		"ionode.fair_max_lag":   t.fairMaxLag,

		"pfs.stripe_requests": float64(t.stripeRequests),
		"pfs.retries":         float64(t.retries),
		"pfs.token_wait_s":    t.tokenWait.Seconds(),
		"pfs.flush_sim_s":     t.flush.Seconds(),

		"prefetch.issued":        float64(t.pfIssued),
		"prefetch.useful_frac":   ratio(float64(t.pfUseful), float64(t.pfIssued)),
		"prefetch.hit_frac":      ratio(float64(t.pfUseful), float64(t.pfServed)),
		"prefetch.wait_s":        t.pfWait,
		"prefetch.wb_stall_frac": ratio(float64(t.wbStalls), float64(t.wbWrites)),

		"sim_write_mbps": ratio(float64(t.writeBytes)/(1<<20), t.writeWindow.Seconds()),
	}
	for _, l := range append(layers, gcBucket, otherBucket) {
		out[l+".cpu_s"] = cpu[l]
	}
	return out
}
