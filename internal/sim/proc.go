//go:build go1.23

// The process hand-off is built on iter.Pull coroutines, which need Go
// 1.23. go.mod stays at go 1.22 because raising it makes the benchmark
// module (perfbench, built with -mod=mod) rewrite its own go.mod on every
// build. The constraint above raises just this file's language version to
// 1.23, without which go vet rejects the iter.Pull call.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a body that the kernel runs on a
// coroutine with strict hand-off, so at most one process (or event
// callback) executes at any real instant. Blocking methods (Sleep,
// Signal.Wait, Queue.Get, ...) must only be called from the process's own
// body.
type Proc struct {
	k      *Kernel
	name   string
	fn     func(p *Proc) // the body, until the start event runs it
	co     *coroutine    // runs the body while the process is running
	idx    int           // position in k.procs while running
	state  procState
	daemon bool
}

// coroutine is an iter.Pull coroutine that runs process bodies one after
// another. When a body returns, its coroutine goes idle on the kernel's
// free list and the next process to start reuses it, so a stream of
// short-lived processes (per-request threads) does not create a coroutine
// each.
type coroutine struct {
	p     *Proc                   // the process running on it; nil while idle
	next  func() (struct{}, bool) // resumes it until it blocks, finishes or idles
	stop  func()                  // unwinds it (Release)
	yield func(struct{}) bool     // suspends it back into next
}

func newCoroutine() *coroutine {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

// loop is the coroutine's body: run the assigned process, then idle until
// the kernel assigns another. It ends when Release stops it.
func (c *coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		p := c.p
		p.run()
		if p.state == procReleased {
			return
		}
		k := p.k
		c.p, p.co = nil, nil
		k.idle = append(k.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// procState is a process's lifecycle: pending until its start event runs,
// running (blocked or executing) until its body returns or Release stops it.
type procState uint8

const (
	procPending procState = iota
	procRunning
	procDone
	procReleased
)

func (s procState) String() string {
	return [...]string{"unstarted", "running", "finished", "released"}[s]
}

// releaseUnwind is the panic value block raises when Release stops a
// blocked process; the body wrapper recovers it. It is private so no model
// code can raise or match it.
type releaseUnwind struct{}

// Go creates a process named name and schedules it to start at the current
// simulated time. fn runs as a coroutine under kernel hand-off; when fn
// returns the process ends. A panic in fn aborts the whole simulation and
// is reported by Run.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.start(name, false, fn)
}

// GoDaemon is Go for service loops that never return (device servers,
// request threads). A simulation whose only remaining blocked processes
// are daemons has simply gone quiet, not deadlocked, so Run does not
// report it as an error. Release reclaims them once the run is over.
func (k *Kernel) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return k.start(name, true, fn)
}

func (k *Kernel) start(name string, daemon bool, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn, daemon: daemon}
	k.live++
	if daemon {
		k.daemons++
	}
	k.AfterCall(0, startProc, p)
	return p
}

// startProc is the start event: it puts the process on an idle coroutine
// (or a new one), lists it as running, and runs it until it first blocks
// or finishes. A process whose start event runs after Release is never
// started.
func startProc(a any) {
	p := a.(*Proc)
	k := p.k
	if k.released {
		p.state, p.fn = procReleased, nil
		return
	}
	var c *coroutine
	if n := len(k.idle); n > 0 {
		c = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		c = newCoroutine()
	}
	c.p, p.co = p, c
	p.state = procRunning
	p.idx = len(k.procs)
	k.procs = append(k.procs, p)
	c.next()
}

// run executes the body under the exit handler.
func (p *Proc) run() {
	defer p.exit()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// exit runs when the body returns, panics, or is unwound by Release. A
// panic becomes the kernel's failure; a released process leaves the
// live/daemon census as it stood when the run ended, and a panic from its
// deferred calls during that unwind is dropped, since the run's outcome
// was settled before teardown began.
func (p *Proc) exit() {
	r := recover()
	if p.state == procReleased {
		return
	}
	k := p.k
	if r != nil && k.failed == nil {
		k.failed = fmt.Errorf("sim: process %q panicked at %v: %v\n%s",
			p.name, k.now, r, debug.Stack())
	}
	k.live--
	if p.daemon {
		k.daemons--
	}
	last := len(k.procs) - 1
	q := k.procs[last]
	k.procs[p.idx], q.idx = q, p.idx
	k.procs[last] = nil
	k.procs = k.procs[:last]
	p.state = procDone
}

// Release stops every process that has started and not finished: each
// blocked body unwinds (running its deferred calls) and its coroutine
// ends, as do the idle ones, so a finished simulation holds no goroutines
// and pins none of its state. Processes whose start event has not run are
// never started. The live/daemon census is left as it was, so Live,
// Daemons and Fingerprint read the same before and after. Release is for
// after the last Run: a released process must not be woken again (doing
// so panics). Calling it more than once, or on a kernel with no
// processes, is a no-op.
func (k *Kernel) Release() {
	k.released = true
	for n := len(k.procs); n > 0; n = len(k.procs) {
		p := k.procs[n-1]
		k.procs[n-1] = nil
		k.procs = k.procs[:n-1]
		p.state = procReleased
		p.co.stop()
	}
	for i, c := range k.idle {
		c.stop()
		k.idle[i] = nil
	}
	k.idle = k.idle[:0]
}

// Name returns the process's name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// block suspends the process, returning control to the kernel, until some
// event calls wake. If Release stops the process instead, block unwinds
// its body.
func (p *Proc) block() {
	if !p.co.yield(struct{}{}) {
		panic(releaseUnwind{})
	}
}

// wake resumes a blocked process and returns when it blocks again or
// finishes. It must be called from kernel context (an event callback).
// Waking a process that is not running (released, finished, or not yet
// started) is a modeling error and panics.
func (k *Kernel) wake(p *Proc) {
	if p.state != procRunning {
		panic(fmt.Sprintf("sim: wake of %v process %q", p.state, p.name))
	}
	p.co.next()
}

// wakeProc is the shared pooled-args callback that resumes a blocked
// process; scheduling it with AfterCall(d, wakeProc, p) is the
// allocation-free form of After(d, func() { k.wake(p) }).
func wakeProc(a any) {
	p := a.(*Proc)
	p.k.wake(p)
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %q sleeping negative duration %v", p.name, d))
	}
	p.k.AfterCall(d, wakeProc, p)
	p.block()
}

// Yield suspends the process until all other work scheduled at the current
// instant has run.
func (p *Proc) Yield() { p.Sleep(0) }
