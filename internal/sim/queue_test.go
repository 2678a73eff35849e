package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// xorshift is the deterministic pseudo-random source the queue tests
// share; no math/rand so the streams are pinned byte-for-byte.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// queueUnderTest abstracts the ladder queue and the reference heap for
// differential tests and benchmarks. Both must pop the identical
// (t, seq) order.
type queueUnderTest interface {
	push(*event)
	pop() *event
}

// TestQueueDifferentialDistributions drives the ladder queue and the
// heap with identical (t, seq) streams across the time distributions
// that exercise every ladder path — uniform narrow and wide spans,
// heavy same-instant ties, bimodal near+far (the DownDeadline shape) —
// first push-all/pop-all, then a hold-model interleaving, asserting the
// pop sequences match exactly.
func TestQueueDifferentialDistributions(t *testing.T) {
	dists := []struct {
		name string
		gen  func(r *xorshift) Time
	}{
		{"narrow", func(r *xorshift) Time { return Time(r.next() % 1000) }},
		{"wide", func(r *xorshift) Time { return Time(r.next() % (1 << 40)) }},
		{"ties", func(r *xorshift) Time { return Time(r.next()%16) * 1000 }},
		{"constant", func(r *xorshift) Time { return 42 }},
		{"bimodal", func(r *xorshift) Time {
			if r.next()%8 == 0 {
				return Time(1<<40 + r.next()%1000)
			}
			return Time(r.next() % 1000)
		}},
	}
	sizes := []int{1, 10, 1000, 30000}
	for _, d := range dists {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/n=%d", d.name, n), func(t *testing.T) {
				hp := &eventHeap{}
				lq := newLadderQueue()
				r := xorshift(0xdeadbeef ^ uint64(n))
				var seq uint64
				push := func(tm Time) {
					seq++
					hp.push(&event{t: tm, seq: seq})
					lq.push(&event{t: tm, seq: seq})
				}
				popBoth := func() Time {
					a, b := hp.pop(), lq.pop()
					if a.t != b.t || a.seq != b.seq {
						t.Fatalf("pop mismatch: heap (%v, %d) vs ladder (%v, %d)", a.t, a.seq, b.t, b.seq)
					}
					return a.t
				}

				for i := 0; i < n; i++ {
					push(d.gen(&r))
				}
				// Hold-model interleaving: pop the earliest, push a
				// replacement later than it.
				for i := 0; i < 2*n; i++ {
					tm := popBoth()
					push(tm + d.gen(&r)%1000 + 1)
				}
				for i := 0; i < n; i++ {
					popBoth()
				}
				if tm, ok := lq.peek(); ok {
					t.Fatalf("ladder not empty after drain: peek %v", tm)
				}
				if lq.n != 0 || len(*hp) != 0 {
					t.Fatalf("residual events: ladder %d, heap %d", lq.n, len(*hp))
				}
			})
		}
	}
}

// TestLadderFarFutureTimer pins the epoch/overflow story: one resident
// far-future timer (the DownDeadline shape) must not break ordering —
// and must not make near-time churn grow the bottom array without
// bound.
func TestLadderFarFutureTimer(t *testing.T) {
	lq := newLadderQueue()
	var seq uint64
	push := func(tm Time) {
		seq++
		lq.push(&event{t: tm, seq: seq})
	}
	const far = Time(1) << 40
	push(far)
	for i := 0; i < 10000; i++ {
		push(Time(i))
		e := lq.pop()
		if e.t != Time(i) {
			t.Fatalf("near churn pop %d: got t=%v", i, e.t)
		}
	}
	if e := lq.pop(); e.t != far {
		t.Fatalf("far timer popped at t=%v, want %v", e.t, far)
	}
	if got := len(lq.bottom); got > 64 {
		t.Fatalf("bottom grew to %d slots under near-time churn; dead-prefix reclamation is broken", got)
	}
}

type execRec struct {
	t  Time
	id int
}

// recDigest folds an execution record — (time, id) pairs in run order —
// into an FNV-1a digest, so a kernel test can pin a whole schedule in
// one constant.
func recDigest(out []execRec) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, r := range out {
		binary.LittleEndian.PutUint64(buf[:8], uint64(r.t))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(r.id)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestKernelQueueEquivalence runs a self-rescheduling workload with a
// far-future timer amid the churn and requires the kernel to reproduce
// the execution record and fingerprint a binary-heap kernel produced on
// the same workload. The constants were recorded on the heap; the
// detgate golden matrix extends the same pin to full scenarios.
func TestKernelQueueEquivalence(t *testing.T) {
	const (
		wantEvents = 563
		wantDigest = 0x513653ef95c845e0
		wantFP     = 0x54ea3a87e2004440
	)
	k := NewKernel()
	var out []execRec
	r := xorshift(0x12345)
	id := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		me := id
		id++
		k.After(Time(r.next()%5000), func() {
			out = append(out, execRec{k.Now(), me})
			if depth < 4 && r.next()%3 == 0 {
				spawn(depth + 1)
				spawn(depth + 1)
			}
		})
	}
	for i := 0; i < 200; i++ {
		spawn(0)
	}
	k.After(10*Second, func() { out = append(out, execRec{k.Now(), -1}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out) != wantEvents {
		t.Fatalf("executed %d events, want %d", len(out), wantEvents)
	}
	if d := recDigest(out); d != wantDigest {
		t.Fatalf("execution record digest %#016x, want %#016x", d, uint64(wantDigest))
	}
	if fp := k.Fingerprint(); fp != wantFP {
		t.Fatalf("fingerprint %#016x, want %#016x", fp, uint64(wantFP))
	}
}

// TestKernelMaxPending: the high-water mark counts the deepest the
// queue got, and Pending returns to zero once it drains.
func TestKernelMaxPending(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 37; i++ {
		k.At(Time(i), func() {})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := k.MaxPending(); got != 37 {
		t.Fatalf("MaxPending = %d, want 37", got)
	}
	if got := k.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d", got)
	}
}

// TestShardSetQueueEquivalence: a sharded ping-pong reproduces the
// fingerprint heap kernels produced on it, and the drain-wall/max-depth
// telemetry is populated.
func TestShardSetQueueEquivalence(t *testing.T) {
	const (
		L      = Time(10)
		wantFP = 0xe807cc1561a6e023
	)
	ss := NewShardSet(4, L)
	ss.SetResolver(echoResolver{l: L})
	n := 0
	var bounce func(g int) func()
	bounce = func(g int) func() {
		return func() {
			n++
			if n < 200 {
				p := ss.Post(g)
				p.Dst = (g + 1) % 4
				p.Fn = bounce((g + 1) % 4)
			}
		}
	}
	ss.Kernel(0).At(0, bounce(0))
	if err := ss.Run(2); err != nil {
		t.Fatal(err)
	}
	if fp := ss.Fingerprint(); fp != wantFP {
		t.Fatalf("sharded fingerprint %#016x, want %#016x", fp, uint64(wantFP))
	}
	if ss.MaxPending() < 1 {
		t.Fatalf("MaxPending = %d, want >= 1", ss.MaxPending())
	}
	if ss.DrainWall() <= 0 {
		t.Fatalf("DrainWall = %v, want > 0", ss.DrainWall())
	}
}
