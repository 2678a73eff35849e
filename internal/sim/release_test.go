package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// parkedKernel runs a kernel to quiescence with one daemon blocked on a
// queue and returns both; the daemon records whether its deferred calls
// ran.
func parkedKernel(t *testing.T) (*Kernel, *Proc, *bool) {
	t.Helper()
	k := NewKernel()
	q := NewQueue[int](k)
	unwound := new(bool)
	p := k.GoDaemon("server", func(p *Proc) {
		defer func() { *unwound = true }()
		for {
			q.Get(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return k, p, unwound
}

func TestReleaseUnwindsBlockedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	k, _, unwound := parkedKernel(t)
	stuck := false
	k.Go("stuck", func(p *Proc) {
		defer func() { stuck = true }()
		NewQueue[int](k).Get(p) // nobody ever puts: a deadlock
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want a deadlock error", err)
	}
	live, daemons, fp := k.Live(), k.Daemons(), k.Fingerprint()
	k.Release()
	if !*unwound || !stuck {
		t.Fatalf("deferred calls ran: daemon %v, stuck %v; want both", *unwound, stuck)
	}
	if k.Live() != live || k.Daemons() != daemons || k.Fingerprint() != fp {
		t.Fatalf("Release moved the census: live %d→%d daemons %d→%d",
			live, k.Live(), daemons, k.Daemons())
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Release, %d before the run", n, before)
	}
}

func TestWakeAfterReleasePanics(t *testing.T) {
	k, p, _ := parkedKernel(t)
	k.Release()
	k.AfterCall(0, wakeProc, p)
	defer func() {
		want := fmt.Sprintf("sim: wake of released process %q", "server")
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	k.Run()
	t.Fatal("wake of a released process did not panic")
}

func TestWakeOfFinishedProcPanics(t *testing.T) {
	k := NewKernel()
	p := k.Go("brief", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.AfterCall(0, wakeProc, p)
	defer func() {
		want := fmt.Sprintf("sim: wake of finished process %q", "brief")
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	k.Run()
	t.Fatal("wake of a finished process did not panic")
}

func TestReleaseWithoutProcsIsNoop(t *testing.T) {
	k := NewKernel()
	k.Release()
	k.Release()
	ran := false
	k.After(1, func() { ran = true })
	if err := k.Run(); err != nil || !ran {
		t.Fatalf("events after an empty Release: err %v, ran %v", err, ran)
	}
}

func TestReleaseTwiceIsSafe(t *testing.T) {
	k, _, unwound := parkedKernel(t)
	k.Release()
	k.Release()
	if !*unwound {
		t.Fatal("daemon not unwound")
	}
}

func TestReleaseSkipsUnstartedProcs(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Go("late", func(p *Proc) { ran = true })
	k.Release()
	k.Run() // the start event still fires, but must not start the body
	if ran {
		t.Fatal("a process created before Release started after it")
	}
}

func TestReleaseSurvivesRecoveringProc(t *testing.T) {
	k := NewKernel()
	k.GoDaemon("stubborn", func(p *Proc) {
		defer func() { recover() }() // swallows the release unwind
		p.Sleep(Second)
		p.Sleep(Second)
	})
	if err := k.RunUntil(Second / 2); err != nil {
		t.Fatal(err)
	}
	live, daemons := k.Live(), k.Daemons()
	k.Release()
	if k.Live() != live || k.Daemons() != daemons {
		t.Fatalf("census moved: live %d→%d daemons %d→%d", live, k.Live(), daemons, k.Daemons())
	}
}

func TestShardSetRelease(t *testing.T) {
	before := runtime.NumGoroutine()
	ss := NewShardSet(3, 10)
	ss.SetResolver(echoResolver{l: 10})
	for g := 0; g < 3; g++ {
		q := NewQueue[int](ss.Kernel(g))
		ss.Kernel(g).GoDaemon(fmt.Sprintf("d%d", g), func(p *Proc) {
			for {
				q.Get(p)
			}
		})
	}
	if err := ss.Run(3); err != nil {
		t.Fatal(err)
	}
	fp := ss.Fingerprint()
	ss.Release()
	if ss.Fingerprint() != fp {
		t.Fatal("Release moved the shard fingerprint")
	}
	if n := settledGoroutines(before); n > before {
		t.Fatalf("%d goroutines after Release, %d before the run", n, before)
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

func TestFinishedProcsReuseCoroutines(t *testing.T) {
	k := NewKernel()
	started := 0
	var chain func(p *Proc)
	chain = func(p *Proc) {
		p.Sleep(1)
		if started++; started < 100 {
			k.Go(fmt.Sprintf("link%d", started), chain)
		}
	}
	k.Go("link0", chain)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 100 {
		t.Fatalf("%d links ran, want 100", started)
	}
	// Each link starts after its predecessor finished, so one coroutine
	// serves the whole chain and sits idle once it ends.
	if len(k.idle) != 1 {
		t.Fatalf("%d idle coroutines after a 100-link chain, want 1", len(k.idle))
	}
	c := k.idle[0]
	k.Release()
	if len(k.idle) != 0 {
		t.Fatalf("%d idle coroutines after Release", len(k.idle))
	}
	if _, ok := c.next(); ok {
		t.Fatal("the idle coroutine survived Release")
	}
}
