package sim

import "testing"

func TestDaemonDoesNotDeadlockRun(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	// A service loop that would wait forever.
	k.GoDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	done := false
	k.Go("client", func(p *Proc) {
		q.Put(1)
		p.Sleep(Millisecond)
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	if !done {
		t.Fatal("client never ran")
	}
}

func TestWorkerBlockedIsStillDeadlock(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	k.GoDaemon("server", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	other := NewQueue[int](k)
	k.Go("stuck-worker", func(p *Proc) {
		other.Get(p) // nobody ever puts
	})
	if err := k.Run(); err == nil {
		t.Fatal("blocked non-daemon next to a daemon not reported as deadlock")
	}
}

func TestDaemonPanicStillReported(t *testing.T) {
	k := NewKernel()
	k.GoDaemon("bad", func(p *Proc) {
		p.Sleep(Second)
		panic("daemon crashed")
	})
	if err := k.Run(); err == nil {
		t.Fatal("daemon panic swallowed")
	}
}

func TestRunUntilLeavesDaemonsQuiet(t *testing.T) {
	k := NewKernel()
	ticks := 0
	k.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	if err := k.RunUntil(3 * Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d", ticks)
	}
}

// TestServiceCountsAsDaemon checks the census contract of StartService:
// the loop is a live daemon from the moment it is started, Run treats a
// parked service as quiet rather than deadlocked, Release leaves the
// census alone, and the start event is booked exactly where GoDaemon
// books a process start, so swapping one for the other keeps the
// fingerprint.
func TestServiceCountsAsDaemon(t *testing.T) {
	k := NewKernel()
	started := 0
	k.StartService(func(a any) { *a.(*int)++ }, &started)
	if k.Live() != 1 || k.Daemons() != 1 {
		t.Fatalf("after StartService live=%d daemons=%d, want 1 1", k.Live(), k.Daemons())
	}
	if err := k.Run(); err != nil {
		t.Fatalf("parked service counted as deadlock: %v", err)
	}
	if started != 1 {
		t.Fatalf("start event ran %d times", started)
	}
	live, daemons, fp := k.Live(), k.Daemons(), k.Fingerprint()
	k.Release()
	if k.Live() != live || k.Daemons() != daemons || k.Fingerprint() != fp {
		t.Fatalf("Release moved the census: live %d→%d daemons %d→%d",
			live, k.Live(), daemons, k.Daemons())
	}

	proc := NewKernel()
	q := NewQueue[int](proc)
	proc.GoDaemon("server", func(p *Proc) { q.Get(p) })
	if err := proc.Run(); err != nil {
		t.Fatal(err)
	}
	if proc.Fingerprint() != fp {
		t.Fatalf("service fingerprint %#x, parked GoDaemon %#x", fp, proc.Fingerprint())
	}
	proc.Release()
}

func TestWorkerBlockedNextToServiceIsDeadlock(t *testing.T) {
	k := NewKernel()
	k.StartService(func(any) {}, nil)
	k.Go("stuck-worker", func(p *Proc) {
		NewQueue[int](k).Get(p) // nobody ever puts
	})
	if err := k.Run(); err == nil {
		t.Fatal("blocked non-daemon next to a service not reported as deadlock")
	}
	k.Release()
}
