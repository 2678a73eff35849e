package pfs

import (
	"fmt"

	"repro/internal/sim"
)

// Async is one asynchronous request: the internal structure the Paragon
// OS allocates in the setup phase and tracks on the active list. Done
// fires when the data is available (reads) or durable (writes); the ART
// itself moves no user-visible pointers.
type Async struct {
	Off, N int64
	Write  bool
	Done   *sim.Signal
}

// art is the asynchronous request thread machinery for one open
// instance: requests queue FIFO on the active list and a dedicated
// thread posts and processes them one at a time via Fast Path, exactly
// the structure Section 3 of the paper describes.
//
// The thread is an event-driven service loop (sim.Kernel.StartService)
// that books exactly the events of a thread process blocking on the
// active list: the start event, one zero-delay wake-up per request that
// finds the thread parked, the ARTSetup posting delay, and one wake-up
// when the striped I/O completes unless it completed synchronously.
type art struct {
	f      *File
	active []*Async // FIFO active list; head indexes the next request
	head   int
	cur    *Async      // request being posted or in flight
	sig    *sim.Signal // pooled completion signal of cur's striped I/O
	parked bool        // thread idle, waiting for enqueue to wake it
	issued int64
}

// IReadAt queues an asynchronous read of [off, off+n) and returns its
// tracking structure immediately (the setup phase). The request is
// processed FIFO by the file's asynchronous request thread. An
// out-of-range request fails the returned signal rather than erroring
// synchronously, matching how the asynchronous path reports errors at
// wait time.
func (f *File) IReadAt(off, n int64) *Async {
	return f.enqueue(&Async{Off: off, N: n})
}

// IWriteAt queues an asynchronous write of [off, off+n), the write-side
// twin of IReadAt (used by the write-behind extension).
func (f *File) IWriteAt(off, n int64) *Async {
	return f.enqueue(&Async{Off: off, N: n, Write: true})
}

// IReadAtReusing is IReadAt with caller-managed request storage: req
// (nil on the first call) is reset and requeued, so a steady stream of
// asynchronous reads — the prefetcher's issue loop — allocates no Async
// and no Signal. The caller must not requeue req until its Done has
// fired and every consumer is finished with it.
func (f *File) IReadAtReusing(req *Async, off, n int64) *Async {
	if req == nil {
		req = &Async{}
	}
	req.Off, req.N, req.Write = off, n, false
	return f.enqueue(req)
}

func (f *File) enqueue(req *Async) *Async {
	if req.Done == nil {
		req.Done = sim.NewSignal(f.fsys.k)
	} else {
		req.Done.Reset(f.fsys.k)
	}
	op := "read"
	if req.Write {
		op = "write"
	}
	if f.closed {
		f.fsys.k.After(0, func() { req.Done.Fire(ErrClosed) })
		return req
	}
	if req.Off < 0 || req.N <= 0 || req.Off+req.N > f.meta.size {
		err := fmt.Errorf("pfs: async %s [%d,+%d) outside %s (%d bytes)",
			op, req.Off, req.N, f.meta.name, f.meta.size)
		f.fsys.k.After(0, func() { req.Done.Fire(err) })
		return req
	}
	if f.art == nil {
		f.art = &art{f: f}
		f.fsys.k.StartService(artWake, f.art)
	}
	a := f.art
	a.issued++
	a.active = append(a.active, req)
	if a.parked {
		a.parked = false
		f.fsys.k.AfterCall(0, artWake, a)
	}
	return req
}

// artWake is the thread's start event and the wake-up enqueue books for
// a parked thread: take the next request off the active list and pay the
// posting cost, or park until a request arrives.
func artWake(v any) {
	a := v.(*art)
	if a.head == len(a.active) {
		a.parked = true
		return
	}
	a.cur = a.active[a.head]
	a.active[a.head] = nil
	a.head++
	if a.head == len(a.active) {
		a.active = a.active[:0]
		a.head = 0
	}
	a.f.fsys.k.AfterCall(a.f.fsys.cfg.ARTSetup, artPosted, a)
}

// artPosted runs when the posting cost is paid: it performs the request
// via Fast Path, continuing at once if the I/O settled synchronously.
func artPosted(v any) {
	a := v.(*art)
	f, req := a.f, a.cur
	if !req.Write {
		if err := f.checkRead(req.Off, req.N); err != nil {
			a.finish(err)
			return
		}
	}
	a.sig = f.fsys.getSig()
	f.fsys.stripeIOInto(a.sig, f.node, f.tenant, f.meta, req.Off, req.N, req.Write)
	if a.sig.Fired() {
		artIODone(a, a.sig.Err())
		return
	}
	a.sig.OnFireCall(artIODone, a)
}

// artIODone settles the striped I/O of the request in flight.
func artIODone(v any, err error) {
	a := v.(*art)
	a.f.fsys.putSig(a.sig)
	a.sig = nil
	if err == nil && !a.cur.Write {
		a.f.IOBytes += a.cur.N
	}
	a.finish(err)
}

// finish fires the request's completion and moves on to the next one.
func (a *art) finish(err error) {
	req := a.cur
	a.cur = nil
	req.Done.Fire(err)
	artWake(a)
}

// AsyncIssued reports how many asynchronous requests this open instance
// has queued (for tests and stats).
func (f *File) AsyncIssued() int64 {
	if f.art == nil {
		return 0
	}
	return f.art.issued
}
