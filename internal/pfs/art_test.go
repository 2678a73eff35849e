package pfs

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/sim"
)

// TestARTSchedulePinned pins the asynchronous request thread's schedule:
// a seeded mix of IReadAt, IWriteAt and IReadAtReusing on two open
// instances, issued in bursts that queue behind the request in flight
// and after pauses that leave the thread idle, with one I/O node's disk
// faulting so some requests complete with an error. The digest covers
// every completion (instant, order, request id, error) plus the
// instances' byte and issue counters; the values were recorded when the
// thread ran as a coroutine daemon.
func TestARTSchedulePinned(t *testing.T) {
	const (
		wantDigest = 0xf2a1c3086a5415b
		wantFP     = 0xff500aeb4920c90e
	)
	r := newRig(t, 2, 3)
	const size = 4 << 20
	for _, name := range []string{"a", "b"} {
		if err := r.fsys.Create(name, size); err != nil {
			t.Fatal(err)
		}
	}
	r.fsys.Servers()[1].FS().Array().Members()[0].InjectFaultProfile(disk.FaultProfile{Rate: 0.3, Seed: 3})

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	order, issued, failed := uint64(0), 0, 0
	record := func(id int, err error) {
		order++
		put(uint64(r.k.Now()))
		put(order)
		put(uint64(id))
		if err != nil {
			failed++
			h.Write([]byte(err.Error()))
		}
	}

	files := make([]*File, 2)
	for node, name := range []string{"a", "b"} {
		node, name := node, name
		rng := rand.New(rand.NewSource(int64(node) + 41))
		r.k.Go("issuer", func(p *sim.Proc) {
			f, err := r.fsys.Open(name, node, MAsync, nil)
			if err != nil {
				t.Error(err)
				return
			}
			files[node] = f
			var reuse *Async
			for burst := 0; burst < 12; burst++ {
				var wait []*Async
				for i := rng.Intn(4); i >= 0; i-- {
					off := rng.Int63n(size/(16<<10)) * (16 << 10)
					n := min((1+rng.Int63n(8))*(16<<10), size-off)
					var a *Async
					switch rng.Intn(3) {
					case 0:
						a = f.IReadAt(off, n)
					case 1:
						a = f.IWriteAt(off, n)
					default:
						if reuse != nil && !reuse.Done.Fired() {
							reuse.Done.Wait(p) //nolint:errcheck // recorded below
						}
						reuse = f.IReadAtReusing(reuse, off, n)
						a = reuse
					}
					issued++
					id := issued
					a.Done.OnFire(func(err error) { record(id, err) })
					wait = append(wait, a)
				}
				switch rng.Intn(3) {
				case 0: // issue the next burst behind this one
				case 1:
					p.Sleep(sim.Time(rng.Int63n(int64(5 * sim.Millisecond))))
				default: // let the thread drain and go idle
					for _, a := range wait {
						a.Done.Wait(p) //nolint:errcheck // recorded above
					}
					p.Sleep(10 * sim.Millisecond)
				}
			}
		})
	}
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if order != uint64(issued) {
		t.Fatalf("%d of %d async requests completed", order, issued)
	}
	if failed == 0 || failed == issued {
		t.Fatalf("%d of %d async requests failed; the mix needs both outcomes", failed, issued)
	}
	for _, f := range files {
		put(uint64(f.IOBytes))
		put(uint64(f.AsyncIssued()))
	}
	if d, fp := h.Sum64(), r.k.Fingerprint(); d != wantDigest || fp != wantFP {
		t.Fatalf("digest %#x fingerprint %#x, want %#x %#x", d, fp, uint64(wantDigest), uint64(wantFP))
	}
}
