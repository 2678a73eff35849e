package disk

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// serviceSchedule drives one disk through a seeded mix of arrivals and
// returns a digest of every completion — (instant, completion order,
// request id, error) — together with the drive's counters and the
// kernel's terminal fingerprint. The mix covers the service loop's
// transitions: submits before the loop's start event, same-instant
// bursts the policy reorders, sequential follow-ons that stream, idle
// gaps that pay rotation, transient and permanent faults with jitter,
// both completion forms, and a Kill with requests queued behind one in
// service, followed by submits to the dead drive.
func serviceSchedule(t *testing.T, sched Sched) (digest, fp uint64) {
	t.Helper()
	k := sim.NewKernel()
	g := testGeo()
	d := New(k, "d0", g, sched)
	d.InjectFaultProfile(FaultProfile{Rate: 0.15, TransientFrac: 0.6, PermanentFrac: 0.2, Jitter: 0.4, Seed: 5})
	rng := rand.New(rand.NewSource(int64(sched) + 17))
	maxSector := g.Capacity()/g.SectorSize - 64

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	order := uint64(0)
	record := func(id int, err error) {
		order++
		put(uint64(k.Now()))
		put(order)
		put(uint64(id))
		if err != nil {
			h.Write([]byte(err.Error()))
		}
	}
	onDone := func(a any, err error) { record(a.(int), err) }

	// A burst is drawn up front so the schedule does not depend on the
	// order the callbacks run in.
	type req struct {
		sector, count int64
		write, signal bool
	}
	id := 0
	lastEnd := int64(0)
	burst := func(n int) []req {
		out := make([]req, n)
		for i := range out {
			r := req{count: 1 + rng.Int63n(32), write: rng.Intn(4) == 0, signal: rng.Intn(3) == 0}
			if rng.Intn(3) == 0 && lastEnd+r.count < maxSector {
				r.sector = lastEnd // sequential follow-on
			} else {
				r.sector = rng.Int63n(maxSector)
			}
			lastEnd = r.sector + r.count
			out[i] = r
		}
		return out
	}
	submit := func(rs []req) {
		for _, r := range rs {
			id++
			rq := &Request{Sector: r.sector, Count: r.count, Write: r.write}
			if r.signal {
				rq.Done = sim.NewSignal(k)
				n := id
				rq.Done.OnFire(func(err error) { record(n, err) })
			} else {
				rq.OnDone, rq.DoneArg = onDone, id
			}
			d.Submit(rq)
		}
	}

	submit(burst(3)) // before the service loop's start event
	at := sim.Time(0)
	for b := 0; b < 60; b++ {
		switch rng.Intn(4) {
		case 0: // same instant as the previous burst
		case 1:
			at += sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
		case 2:
			at += sim.Time(rng.Int63n(int64(20 * sim.Millisecond)))
		default: // long enough for the queue to drain: an idle gap
			at += 200 * sim.Millisecond
		}
		rs := burst(1 + rng.Intn(5))
		k.At(at, func() { submit(rs) })
	}
	// Kill with a request in service and four queued behind it, then
	// keep submitting to the dead drive.
	at += 300 * sim.Millisecond
	rs := burst(5)
	k.At(at, func() { submit(rs) })
	k.At(at+sim.Millisecond, func() {
		queued := len(d.queue)
		d.Kill()
		if queued < 4 {
			t.Errorf("Kill found %d queued requests, want at least 4", queued)
		}
	})
	late := burst(3)
	k.At(at+2*sim.Millisecond, func() { submit(late) })
	k.At(at+500*sim.Millisecond, func() { submit(late) })

	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order != uint64(id) {
		t.Fatalf("%d of %d requests completed", order, id)
	}
	for _, v := range []int64{d.Requests, d.Sectors, d.Errors, d.TransientErrors, d.PermanentErrors} {
		put(uint64(v))
	}
	return h.Sum64(), k.Fingerprint()
}

// TestServiceSchedulePinned pins the disk service loop's schedule under
// every policy. The values were recorded when the loop ran as a
// coroutine daemon; any change to how the server waits, wakes, picks or
// completes shows here as a digest or fingerprint mismatch.
func TestServiceSchedulePinned(t *testing.T) {
	want := map[Sched][2]uint64{
		FIFO:  {0x4440ac96f206d17, 0x8f9dca9e5d530216},
		SCAN:  {0xc0613eaacc9acaab, 0x8b0692a8cf302a0c},
		CSCAN: {0xd44169fd111aa80a, 0x440111c264f5752c},
		SSTF:  {0x3f66bc90bbeedfa2, 0xc49e6ce2accb709b},
	}
	for _, s := range []Sched{FIFO, SCAN, CSCAN, SSTF} {
		digest, fp := serviceSchedule(t, s)
		if w := want[s]; digest != w[0] || fp != w[1] {
			t.Errorf("%v: digest %#x fingerprint %#x, want %#x %#x", s, digest, fp, w[0], w[1])
		}
	}
}
