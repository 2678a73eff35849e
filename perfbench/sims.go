package main

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/pfs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// outcome is what one simulation produced, as the benchmark measures and
// checks it.
type outcome struct {
	res         *workload.Result
	reads       *stats.Histogram // latency of every application read served, seconds
	readElapsed sim.Time         // simulated time the reads took
	readBytes   int64            // bytes delivered to applications
	sloMet      int64            // reads (requests) served within sloLatency
	offered     int64            // reads (requests) the workload issued

	// checkpoint-scale only.
	wb          *prefetch.WriteBehind
	writeBytes  int64
	writeWindow sim.Time // first write to last Flush return
	flushTime   sim.Time // summed simulated time inside Flush
}

// since reports the host seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// countWithin counts the samples of h at or below limit.
func countWithin(h *stats.Histogram, limit sim.Time) int64 {
	var n int64
	s := limit.Seconds()
	h.Each(func(v float64) {
		if v <= s {
			n++
		}
	})
	return n
}

// --- paper-sweep ---

// mountConfig is the machine workload.Run builds for the spec: a
// buffered spec turns Fast Path off.
func (j *readJob) mountConfig() machine.Config {
	cfg := j.cfg
	if j.spec.Buffered {
		cfg.PFS.FastPath = false
	}
	return cfg
}

func (j *readJob) setup() (build, create float64, err error) {
	t := time.Now()
	m := machine.Build(j.mountConfig())
	build = since(t)
	t = time.Now()
	err = createReadFiles(m, j.cfg, j.spec)
	return build, since(t), err
}

// createReadFiles lays out the spec's file(s) the way workload.Run does.
func createReadFiles(m *machine.Machine, cfg machine.Config, spec workload.Spec) error {
	su := spec.StripeUnit
	if su == 0 {
		su = cfg.PFS.StripeUnit
	}
	group := make([]int, cfg.IONodes)
	for i := range group {
		group[i] = i
	}
	if !spec.SeparateFiles {
		return m.FS.CreateStriped(spec.File, spec.FileSize, su, group)
	}
	share := spec.FileSize / int64(cfg.ComputeNodes)
	for i := 0; i < cfg.ComputeNodes; i++ {
		if err := m.FS.CreateStriped(fmt.Sprintf("%s.%d", spec.File, i), share, su, group); err != nil {
			return err
		}
	}
	return nil
}

func (j *readJob) run() (*outcome, error) {
	res, err := workload.Run(j.cfg, j.spec)
	if err != nil {
		return nil, err
	}
	return &outcome{
		res:         res,
		reads:       &res.ReadTime,
		readElapsed: res.Elapsed,
		readBytes:   res.TotalBytes,
		sloMet:      countWithin(&res.ReadTime, sloLatency),
		offered:     res.ReadCalls,
	}, nil
}

func (j *readJob) check(out *outcome) error {
	return checkRead(out.res, expectRead(j.spec, j.cfg.ComputeNodes))
}

// readExpectation is what a read workload must deliver: the call and
// byte totals, and for statically assigned access patterns each node's
// delivery digest.
type readExpectation struct {
	calls, bytes int64
	digests      []uint64 // nil when offsets depend on run timing (M_UNIX, M_LOG)
}

// expectRead computes the expectation from the spec alone. Offsets are
// a pure function of the spec for every mode except the unordered
// shared-pointer pair M_UNIX/M_LOG, whose claims depend on token arrival
// order; for those only the totals are known.
func expectRead(spec workload.Spec, parties int) readExpectation {
	req, size := spec.RequestSize, spec.FileSize
	if spec.Mode == pfs.MUnix || spec.Mode == pfs.MLog {
		return readExpectation{calls: (size + req - 1) / req, bytes: size}
	}
	var want readExpectation
	for rank := 0; rank < parties; rank++ {
		h := pfs.DeliveryHashSeed
		limit := size
		emit := func(off int64) bool {
			if off >= limit {
				return false
			}
			n := min(req, limit-off)
			h = pfs.FoldDelivery(h, off, n)
			want.calls++
			want.bytes += n
			return true
		}
		switch {
		case spec.SeparateFiles:
			limit = size / int64(parties)
			for off := int64(0); emit(off); off += req {
			}
		case spec.Mode == pfs.MRecord, spec.Mode == pfs.MSync,
			spec.Mode == pfs.MAsync && spec.Pattern == workload.Interleaved:
			for r := int64(0); emit((r*int64(parties) + int64(rank)) * req); r++ {
			}
		case spec.Mode == pfs.MGlobal:
			for off := int64(0); emit(off); off += req {
			}
		case spec.Pattern == workload.Partitioned:
			share := size / int64(parties)
			limit = int64(rank+1) * share
			for off := int64(rank) * share; emit(off); off += req {
			}
		case spec.Pattern == workload.Strided:
			stride := int64(max(spec.Stride, 1))
			for r := int64(0); emit((r*int64(parties) + int64(rank)) * stride * req); r++ {
			}
		case spec.Pattern == workload.Random:
			rng := workload.PatternRNG(spec, rank)
			maxRec := size / req
			for i := int64(0); i < size/req/int64(parties); i++ {
				off := rng.Int63n(maxRec) * req
				emit(min(off, size-req))
			}
		}
		want.digests = append(want.digests, h)
	}
	return want
}

// checkRead compares a read workload's result with its expectation.
func checkRead(res *workload.Result, want readExpectation) error {
	if res.ReadCalls != want.calls || res.TotalBytes != want.bytes {
		return fmt.Errorf("delivered %d bytes in %d reads, spec asks %d bytes in %d reads",
			res.TotalBytes, res.ReadCalls, want.bytes, want.calls)
	}
	if want.digests == nil {
		return nil
	}
	for i, d := range want.digests {
		if res.DeliveryDigests[i] != d {
			return fmt.Errorf("node %d delivery digest %016x, access pattern gives %016x",
				i, res.DeliveryDigests[i], d)
		}
	}
	return nil
}

// --- checkpoint-scale ---

func ckptName(i int) string { return fmt.Sprintf("ckpt.%d", i) }

func (j *ckptJob) size() int64 { return int64(j.records) * j.record }

func (j *ckptJob) setup() (build, create float64, err error) {
	t := time.Now()
	m := machine.Build(j.cfg)
	build = since(t)
	t = time.Now()
	err = j.create(m)
	return build, since(t), err
}

func (j *ckptJob) create(m *machine.Machine) error {
	for i := 0; i < j.cfg.ComputeNodes; i++ {
		if err := m.FS.Create(ckptName(i), j.size()); err != nil {
			return err
		}
	}
	return nil
}

// ckptNode is one compute node's record of its checkpoint cycle.
type ckptNode struct {
	err                  error
	writeStart, writeEnd sim.Time
	readStart, readEnd   sim.Time
	flush                sim.Time
	file                 *pfs.File // the read-back instance
}

func (j *ckptJob) run() (*outcome, error) {
	m := machine.Build(j.cfg)
	if err := j.create(m); err != nil {
		return nil, err
	}
	wb := prefetch.NewWriteBehind(m.K, j.wb)
	pf := prefetch.New(m.K, j.pf)
	nodes := make([]ckptNode, j.cfg.ComputeNodes)
	for i := range nodes {
		i, st := i, &nodes[i]
		m.K.Go(fmt.Sprintf("ckpt%d", i), func(p *sim.Proc) { st.err = j.cycle(p, m, wb, pf, i, st) })
	}
	if err := m.Run(); err != nil {
		return nil, err
	}

	res := &workload.Result{Machine: m, Prefetch: pf}
	out := &outcome{res: res, reads: &res.ReadTime, wb: wb}
	var w0, w1, r0, r1 sim.Time = 1 << 62, 0, 1 << 62, 0
	for i := range nodes {
		st := &nodes[i]
		if st.err != nil {
			return nil, fmt.Errorf("node %d: %w", i, st.err)
		}
		f := st.file
		res.NodeTimes = append(res.NodeTimes, st.readEnd)
		res.DeliveryDigests = append(res.DeliveryDigests, f.DeliveryDigest())
		res.TotalBytes += f.BytesRead
		res.ReadCalls += f.ReadCalls
		res.IOBytes += f.IOBytes
		f.ReadTime.Each(res.ReadTime.Observe)
		res.Elapsed = max(res.Elapsed, st.readEnd)
		w0, w1 = min(w0, st.writeStart), max(w1, st.writeEnd)
		r0, r1 = min(r0, st.readStart), max(r1, st.readEnd)
		out.flushTime += st.flush
	}
	res.Bandwidth = stats.MBps(res.TotalBytes, res.Elapsed)
	out.readElapsed = r1 - r0
	out.readBytes = res.TotalBytes
	out.offered = res.ReadCalls
	out.sloMet = countWithin(&res.ReadTime, sloLatency)
	out.writeBytes = wb.Writes * j.record
	out.writeWindow = w1 - w0
	return out, nil
}

// cycle is one compute node's program: write the checkpoint in records
// through write-behind with computation between them, flush, then read
// it back through the prefetcher.
func (j *ckptJob) cycle(p *sim.Proc, m *machine.Machine, wb *prefetch.WriteBehind, pf *prefetch.Prefetcher, i int, st *ckptNode) error {
	f, err := m.FS.Open(ckptName(i), m.Compute[i], pfs.MAsync, nil)
	if err != nil {
		return err
	}
	p.Sleep(j.arrive[i])
	st.writeStart = p.Now()
	for r := 0; r < j.records; r++ {
		if r > 0 {
			p.Sleep(j.delay)
		}
		if err := wb.Write(p, f, int64(r)*j.record, j.record); err != nil {
			return err
		}
	}
	t := p.Now()
	if err := wb.Flush(p, f); err != nil {
		return err
	}
	st.writeEnd = p.Now()
	st.flush = st.writeEnd - t
	if err := f.Close(); err != nil {
		return err
	}

	g, err := m.FS.Open(ckptName(i), m.Compute[i], pfs.MAsync, nil)
	if err != nil {
		return err
	}
	pf.Attach(g)
	st.file = g
	st.readStart = p.Now()
	for r := 0; r < j.records; r++ {
		if r > 0 {
			p.Sleep(j.delay)
		}
		n, err := g.Read(p, j.record)
		if err != nil {
			return err
		}
		if n != j.record {
			return fmt.Errorf("record %d: read %d of %d bytes", r, n, j.record)
		}
	}
	st.readEnd = p.Now()
	return g.Close()
}

func (j *ckptJob) check(out *outcome) error {
	nodes := j.cfg.ComputeNodes
	want := readExpectation{calls: int64(nodes * j.records), bytes: int64(nodes) * j.size()}
	h := pfs.DeliveryHashSeed
	for r := 0; r < j.records; r++ {
		h = pfs.FoldDelivery(h, int64(r)*j.record, j.record)
	}
	for i := 0; i < nodes; i++ {
		want.digests = append(want.digests, h)
	}
	if err := checkRead(out.res, want); err != nil {
		return err
	}
	if got := out.wb.Writes; got != int64(nodes*j.records) {
		return fmt.Errorf("write-behind accepted %d writes, want %d", got, nodes*j.records)
	}
	if out.writeWindow <= 0 || out.readElapsed <= 0 {
		return fmt.Errorf("empty write window %v or read window %v", out.writeWindow, out.readElapsed)
	}
	return nil
}

// --- tenant-overload ---

func (j *qosJob) setup() (build, create float64, err error) {
	cfg := j.cfg
	cfg.Fair.Tenants = j.spec.Tenants
	t := time.Now()
	m := machine.Build(cfg)
	build = since(t)
	t = time.Now()
	err = m.FS.Mkdir("qos")
	for i := 0; i < j.spec.Files && err == nil; i++ {
		err = m.FS.Create(fmt.Sprintf("qos/%d", i), j.spec.FileSize)
	}
	return build, since(t), err
}

func (j *qosJob) run() (*outcome, error) {
	res, err := workload.RunQoS(j.cfg, j.spec)
	if err != nil {
		return nil, err
	}
	q := res.QoS
	return &outcome{
		res:         res,
		reads:       &q.Latency,
		readElapsed: res.Elapsed,
		readBytes:   res.TotalBytes,
		sloMet:      q.SLOMet,
		offered:     q.Arrivals,
	}, nil
}

// check cross-foots the QoS ledger: every offered request is classified
// exactly once, none fails outright, completions carry whole requests,
// and per tenant the bytes the client pulled (delivered, late or
// abandoned) equal the bytes the servers served.
func (j *qosJob) check(out *outcome) error {
	q := out.res.QoS
	var requests, done int64
	for t := range q.Tenants {
		ts := &q.Tenants[t]
		if got := ts.Done + ts.Throttled + ts.Overloaded + ts.Failed; got != ts.Requests {
			return fmt.Errorf("tenant %d: %d of %d requests classified", t, got, ts.Requests)
		}
		if ts.Failed != 0 {
			return fmt.Errorf("tenant %d: %d requests failed", t, ts.Failed)
		}
		if ts.Bytes != ts.Done*j.spec.RequestSize {
			return fmt.Errorf("tenant %d: %d completions delivered %d bytes", t, ts.Done, ts.Bytes)
		}
		if got := ts.IOBytes + ts.LateBytes + ts.AbandonedBytes; got != ts.SrvBytes {
			return fmt.Errorf("tenant %d: client pulled %d bytes, servers served %d", t, got, ts.SrvBytes)
		}
		if got := ts.SrvServed + ts.SrvShed + ts.SrvFaulted + ts.SrvDropped; got != ts.SrvArrived {
			return fmt.Errorf("tenant %d: servers classified %d of %d arrivals", t, got, ts.SrvArrived)
		}
		requests += ts.Requests
		done += ts.Done
	}
	if requests != q.Arrivals || requests == 0 {
		return fmt.Errorf("%d tenant requests against %d arrivals", requests, q.Arrivals)
	}
	if int64(q.Latency.N()) != done || out.res.TotalBytes != done*j.spec.RequestSize {
		return fmt.Errorf("%d latency samples and %d bytes for %d completions",
			q.Latency.N(), out.res.TotalBytes, done)
	}
	return nil
}
