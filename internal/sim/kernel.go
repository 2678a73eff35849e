package sim

import (
	"fmt"
	"hash/fnv"
)

// event is a scheduled callback. Events are pooled on the kernel's free
// list: every simulated event crosses Schedule (At/After) and the run
// loop, so reusing the structs removes one heap allocation per event —
// the dominant allocation of a simulation.
//
// An event carries either a plain closure (fn) or a pooled-args callback
// (cfn/ecfn with arg, and err for ecfn). The callback forms exist so hot
// paths can schedule without constructing a closure: a func(any) is a
// shared top-level function and arg is a pointer to pooled state, so the
// whole At/dispatch round trip allocates nothing.
type event struct {
	t    Time
	seq  uint64 // tie-breaker: see the (time, seq) total order below
	fn   func()
	cfn  func(any)
	ecfn func(any, error)
	arg  any
	err  error
}

// Kernel is a discrete-event simulation scheduler. It is not safe for
// concurrent use from multiple OS threads; all concurrency in a simulation
// is expressed through processes, which the kernel interleaves
// deterministically one at a time.
//
// Simultaneous events execute in an explicit documented total order,
// never by queue insertion accident: (time, seq), where seq is the
// kernel's scheduling sequence number — events booked earlier run
// earlier at the same instant. In a sharded execution (ShardSet) each
// group's kernel keeps its own seq counter, and cross-group deliveries
// extend this to the global (time, shard, seq) order documented in
// shard.go: a delivery is booked on its target kernel at the round
// barrier, in canonical merge order, so the seq it receives — and hence
// its rank among same-instant events — is a pure function of the
// simulation's data, identical at every worker count.
type Kernel struct {
	now        Time
	seq        uint64
	events     *ladderQueue // pending events in (t, seq) order (see ladder.go)
	procs      []*Proc      // procs started and not yet finished (swap-remove)
	idle       []*coroutine // coroutines whose proc finished, for reuse
	released   bool         // Release has run: no proc starts or wakes again
	live       int          // procs created and not yet finished
	daemons    int          // live procs marked as daemons (service loops)
	executed   uint64       // events run so far
	failed     error        // first process panic, if any
	free       []*event     // recycled event structs (see event)
	maxPending int          // high-water mark of the pending-event count
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{events: newLadderQueue()}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// peek returns the time of the earliest pending event, if any. The
// sharded scheduler uses it to compute each round's lookahead window.
func (k *Kernel) peek() (Time, bool) { return k.events.peek() }

// qpush inserts a booked event into the queue and tracks the
// pending-count high-water mark.
func (k *Kernel) qpush(e *event) {
	k.events.push(e)
	k.maxPending = max(k.maxPending, k.events.n)
}

// qpop removes and returns the earliest pending event in (time, seq)
// order; callers must know the queue is non-empty.
func (k *Kernel) qpop() *event { return k.events.pop() }

// Pending reports the number of events waiting to run.
func (k *Kernel) Pending() int { return k.events.n }

// MaxPending reports the high-water mark of the pending-event count —
// the deepest the event queue ever got. It is a deterministic property
// of the schedule (runbench records it as max_queue_depth).
func (k *Kernel) MaxPending() int { return k.maxPending }

// Live reports the number of processes that have been created and have not
// yet returned. After Run, a nonzero value means some processes are blocked
// forever (a modeling deadlock).
func (k *Kernel) Live() int { return k.live }

// Daemons reports how many of the live processes are daemons (service
// loops that legitimately outlive the workload). A quiescent simulation
// has Live() == Daemons().
func (k *Kernel) Daemons() int { return k.daemons }

// Executed reports the number of events the kernel has run. Together with
// the clock and the sequence counter it summarizes the whole schedule: two
// runs of the same model that disagree anywhere disagree here.
func (k *Kernel) Executed() uint64 { return k.executed }

// Fingerprint digests the kernel's terminal state — clock, total events
// scheduled, events executed, and residual process census — for run-twice
// determinism checks. It is not a hash of the event history itself; the
// per-event record lives in the trace log, which has its own digest.
func (k *Kernel) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []uint64{uint64(k.now), k.seq, k.executed, uint64(k.live), uint64(k.daemons)} {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// book assigns the next sequence number to a pooled event at absolute
// time t without inserting it into the queue. Booking in the past
// (t < Now) panics: it would silently reorder causality. The split from
// queue insertion exists for the shard barrier drain, which books
// deliveries in canonical merge order (fixing their seq, and hence
// their rank among same-instant events) but batches the queue inserts
// per destination group — insertion order cannot affect the (t, seq)
// priority, so the batching is invisible to the schedule.
func (k *Kernel) book(t Time) *event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.t, e.seq = t, k.seq
	return e
}

// schedule books a pooled event at absolute time t, inserts it, and
// returns it for the caller to attach a callback. The queue orders
// events by (t, seq) only, so pushing before the callback fields are
// set is safe.
func (k *Kernel) schedule(t Time) *event {
	e := k.book(t)
	k.qpush(e)
	return e
}

// At schedules fn to run at absolute time t.
func (k *Kernel) At(t Time, fn func()) {
	k.schedule(t).fn = fn
}

// After schedules fn to run d after the current time. Negative d panics.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.At(k.now+d, fn)
}

// AtCall schedules fn(arg) to run at absolute time t. It is At without
// the closure: fn is typically a shared top-level function and arg a
// pointer to pooled state, so the call allocates nothing. Scheduling
// order, timing, and fingerprint accounting are identical to At.
func (k *Kernel) AtCall(t Time, fn func(any), arg any) {
	e := k.schedule(t)
	e.cfn, e.arg = fn, arg
}

// AfterCall is AtCall relative to the current time. Negative d panics.
func (k *Kernel) AfterCall(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.AtCall(k.now+d, fn, arg)
}

// AfterCallErr schedules fn(arg, err) d after the current time, carrying
// an error value in the event itself. It exists for completion paths
// (signal callbacks, device done notifications) that deliver an error to
// pooled state without closing over it. Negative d panics.
func (k *Kernel) AfterCallErr(d Time, fn func(any, error), arg any, err error) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e := k.schedule(k.now + d)
	e.ecfn, e.arg, e.err = fn, arg, err
}

// Run executes events until none remain, then returns the first process
// failure (panic) if any occurred. Processes still blocked when the event
// queue drains are reported as a deadlock error.
func (k *Kernel) Run() error {
	return k.RunUntil(Time(1)<<62 - 1)
}

// RunUntil executes events with time ≤ deadline. The clock stops at the
// last executed event (or the deadline if nothing ran past it). Unlike Run,
// a drained queue with live processes is not an error when the deadline
// cut the run short.
func (k *Kernel) RunUntil(deadline Time) error {
	for {
		t, ok := k.peek()
		if !ok {
			break
		}
		if t > deadline {
			k.now = deadline
			return k.failed
		}
		e := k.qpop()
		k.now = e.t
		k.executed++
		fn, cfn, ecfn, arg, err := e.fn, e.cfn, e.ecfn, e.arg, e.err
		// Recycle before dispatch: the callback's own Schedule calls can
		// reuse the struct immediately. Clearing the callback fields drops
		// closure and arg references so pooled events do not pin dead state.
		e.fn, e.cfn, e.ecfn, e.arg, e.err = nil, nil, nil, nil, nil
		k.free = append(k.free, e)
		switch {
		case fn != nil:
			fn()
		case ecfn != nil:
			ecfn(arg, err)
		default:
			cfn(arg)
		}
		if k.failed != nil {
			return k.failed
		}
	}
	if k.live > k.daemons && deadline >= Time(1)<<62-1 {
		return fmt.Errorf("sim: deadlock: %d process(es) blocked with no pending events at %v",
			k.live-k.daemons, k.now)
	}
	return k.failed
}
