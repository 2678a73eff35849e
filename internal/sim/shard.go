package sim

import (
	"fmt"
	"hash/fnv"
	"time"
)

// This file implements the sharded execution engine: a conservative
// (lookahead-window) parallel discrete-event scheduler over a fixed
// partition of the simulated machine into node groups, each owning a
// private Kernel. The engine advances all groups in synchronized rounds
// and is deterministic by construction — the same model produces
// bit-identical kernel fingerprints, counters, and trace digests at any
// worker count, because nothing observable ever depends on which OS
// thread ran what.
//
// # Protocol
//
// Every round the coordinator computes M, the earliest pending event
// time across all groups, and opens the window [M, M+L) where L is the
// lookahead: a lower bound on the latency of any cross-group message
// (for a mesh interconnect, the minimum link/delivery latency — see
// mesh.MinLookahead). Each group then executes its own events with
// t < M+L in parallel, with no communication: a message sent at time
// t ≥ M inside the window cannot arrive before t+L ≥ M+L, so no group
// can receive anything that would have to run inside the current
// window. Cross-group sends are not resolved inline; they are appended
// to the sending group's outbox as pooled Posts. At the round barrier a
// single-threaded merge drains all outboxes in one canonical total
// order and schedules the deliveries, and the next round begins.
//
// # The (time, shard, seq) total order
//
// Simultaneous events must execute in the same order at every worker
// count, so ties are broken by an explicit documented total order
// rather than by heap insertion accidents:
//
//   - within one group, the kernel's (time, seq) order applies — seq is
//     the group-local scheduling sequence, which is deterministic
//     because each group's execution is single-threaded;
//   - across groups, outboxes are merged in (time, shard, seq) order:
//     send timestamp first, then the sending group's index, then the
//     group-local post sequence.
//
// Both components are pure functions of the simulation's data, never of
// thread scheduling. The merge itself mutates shared model state (mesh
// link clocks, latency histograms) on one thread in that canonical
// order, so even globally-shared analytic resources stay deterministic.
//
// # Why this is safe
//
// The lookahead argument needs L to be a true lower bound: if any
// message could arrive in less than L, a group might run past the
// moment a neighbor's message should have influenced it. The drain loop
// enforces the contract at runtime — a resolver returning an arrival
// earlier than send+L panics rather than silently corrupting causality.

// Post is one cross-group message, pooled per source group. The
// scheduler fills T, Seq, and SrcGroup; the model (the mesh) fills the
// routing fields and the delivery callback. Src, Dst, Size, and
// NoSendOverhead are opaque to the scheduler: they are carried to the
// model's Resolver, which turns them into a target group and arrival
// time at the round barrier.
type Post struct {
	T        Time   // send time (sending group's clock)
	Seq      uint64 // send order within the source group
	SrcGroup int

	Src, Dst       int   // model addresses (mesh nodes)
	Size           int64 // message payload size
	NoSendOverhead bool  // sender software overhead already paid (mesh.Transfer)

	Fn  func()    // delivery closure, or
	CFn func(any) // pooled-args delivery callback
	Arg any
}

// Resolver turns a drained Post into a delivery: the target group, the
// arrival time, and whether to deliver at all (a message to a dead node
// is dropped). Resolve is called on one thread, in canonical
// (time, shard, seq) order, and is the only place cross-group model
// state (link occupancy clocks, message counters) may be mutated.
type Resolver interface {
	Resolve(p *Post) (group int, at Time, deliver bool)
}

// ShardSet runs a fixed partition of the simulation — one Kernel per
// node group — under the conservative-lookahead protocol above. The
// partition is part of the model (it never changes with the worker
// count); Run's workers parameter only sets how many OS threads advance
// the groups inside each window.
type ShardSet struct {
	kernels   []*Kernel
	lookahead Time
	resolver  Resolver

	outbox  [][]*Post // per source group, appended in send order during rounds
	head    []int     // drain cursor per outbox
	postSeq []uint64  // per-group send sequence (the "seq" of the total order)
	free    [][]*Post // per-group Post pools; filled by drain, drained by Post
	errs    []error   // per-group RunUntil results for the current round

	merge     []int32    // reused drain merge heap over source groups with pending posts
	batch     [][]*event // reused per-destination-group delivery batches (booked, not yet queued)
	drainWall time.Duration
}

// NewShardSet builds groups empty kernels coupled by lookahead. The
// lookahead must be positive: a zero bound would admit same-instant
// cross-group delivery, which the windowed protocol cannot order.
func NewShardSet(groups int, lookahead Time) *ShardSet {
	if groups < 1 {
		panic(fmt.Sprintf("sim: shard set needs at least one group, got %d", groups))
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: shard lookahead must be positive, got %v", lookahead))
	}
	ss := &ShardSet{
		kernels:   make([]*Kernel, groups),
		lookahead: lookahead,
		outbox:    make([][]*Post, groups),
		head:      make([]int, groups),
		postSeq:   make([]uint64, groups),
		free:      make([][]*Post, groups),
		errs:      make([]error, groups),
		merge:     make([]int32, 0, groups),
		batch:     make([][]*event, groups),
	}
	for g := range ss.kernels {
		ss.kernels[g] = NewKernel()
	}
	return ss
}

// Groups reports the number of node groups in the partition.
func (ss *ShardSet) Groups() int { return len(ss.kernels) }

// Kernel returns group g's kernel. Model components are built on the
// kernel of the group that owns them and never touch another group's.
func (ss *ShardSet) Kernel(g int) *Kernel { return ss.kernels[g] }

// Lookahead reports the cross-group delivery lower bound.
func (ss *ShardSet) Lookahead() Time { return ss.lookahead }

// SetResolver installs the model's post resolver (the mesh).
func (ss *ShardSet) SetResolver(r Resolver) { ss.resolver = r }

// Post books a cross-group message sent now by group src and returns
// the pooled Post for the caller to fill in. Must be called from model
// code executing on group src (its worker owns the outbox during the
// round). The post is timestamped with the group's current clock and
// the group's next send sequence number, which together with src form
// its position in the canonical drain order.
func (ss *ShardSet) Post(src int) *Post {
	var p *Post
	if fl := ss.free[src]; len(fl) > 0 {
		p = fl[len(fl)-1]
		fl[len(fl)-1] = nil
		ss.free[src] = fl[:len(fl)-1]
	} else {
		p = &Post{}
	}
	ss.postSeq[src]++
	p.T = ss.kernels[src].now
	p.Seq = ss.postSeq[src]
	p.SrcGroup = src
	ss.outbox[src] = append(ss.outbox[src], p)
	return p
}

// Run executes the whole simulation with the given number of parallel
// workers and returns the first process failure or a deadlock error,
// like Kernel.Run. Results are bit-identical for any workers ≥ 1:
// groups are assigned to workers statically (group g to worker g mod
// workers) and each group's execution is single-threaded either way.
// workers is clamped to [1, Groups()]; workers == 1 runs inline with no
// goroutines at all.
func (ss *ShardSet) Run(workers int) error {
	G := len(ss.kernels)
	if workers < 1 {
		workers = 1
	}
	if workers > G {
		workers = G
	}

	var start []chan Time
	var done chan struct{}
	if workers > 1 {
		start = make([]chan Time, workers)
		done = make(chan struct{})
		for w := 0; w < workers; w++ {
			c := make(chan Time)
			start[w] = c
			go func(w int) {
				for horizon := range c {
					for g := w; g < G; g += workers {
						ss.errs[g] = ss.kernels[g].RunUntil(horizon - 1)
					}
					done <- struct{}{}
				}
				done <- struct{}{} // exiting: no worker outlives Run
			}(w)
		}
		defer func() {
			for _, c := range start {
				close(c)
			}
			for range start {
				<-done
			}
		}()
	}

	for {
		// M: earliest pending event anywhere. Outboxes are empty here (the
		// previous round drained them), so an empty M means quiescence.
		var m Time
		any := false
		for _, k := range ss.kernels {
			if t, ok := k.peek(); ok && (!any || t < m) {
				m, any = t, true
			}
		}
		if !any {
			break
		}
		horizon := m + ss.lookahead // exclusive: the round runs events with t < horizon

		if workers == 1 {
			for g := 0; g < G; g++ {
				ss.errs[g] = ss.kernels[g].RunUntil(horizon - 1)
			}
		} else {
			for _, c := range start {
				c <- horizon
			}
			for range start {
				<-done
			}
		}
		// A process panic anywhere ends the run. With simultaneous failures
		// the lowest group's error is reported — a canonical choice, so even
		// failure output is identical at every worker count.
		for g := 0; g < G; g++ {
			if ss.errs[g] != nil {
				return ss.errs[g]
			}
		}
		ss.drain()
	}

	live, daemons := 0, 0
	for _, k := range ss.kernels {
		live += k.live
		daemons += k.daemons
	}
	if live > daemons {
		return fmt.Errorf("sim: deadlock: %d process(es) blocked with no pending events across %d shards",
			live-daemons, G)
	}
	return nil
}

// Release stops every started, unfinished process on every group's
// kernel (see Kernel.Release). Call it after the last Run; the census and
// Fingerprint are unchanged by it.
func (ss *ShardSet) Release() {
	for _, k := range ss.kernels {
		k.Release()
	}
}

// srcLess orders two source groups by their head posts: earliest send
// time wins, lowest group breaks ties. Each outbox is sorted by
// construction (clocks only move forward within a group, and Seq
// increments per send), so comparing heads is comparing the groups'
// next posts in the canonical (time, shard, seq) order.
func (ss *ShardSet) srcLess(a, b int32) bool {
	ta := ss.outbox[a][ss.head[a]].T
	tb := ss.outbox[b][ss.head[b]].T
	if ta != tb {
		return ta < tb
	}
	return a < b
}

// mergeFix restores the merge-heap property at index i by sifting down.
func (ss *ShardSet) mergeFix(i int) {
	h := ss.merge
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && ss.srcLess(h[l], h[min]) {
			min = l
		}
		if r < n && ss.srcLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// drain resolves every outboxed post of the finished round in the
// canonical (time, shard, seq) total order. Single-threaded: this is
// the only code that runs between rounds, so the resolver may safely
// touch shared model state.
//
// The merge runs over per-source FIFO runs (posts are already bucketed
// per group at send time) through a small index heap keyed on each
// source's head post — O(P log A) for P posts over A active sources,
// instead of scanning every group per post. Deliveries are booked on
// their target kernel in merge order — fixing each event's seq, and
// hence the documented total order — but the queue insertions are
// batched per destination group and flushed after the merge: insertion
// order cannot affect the (t, seq) priority, so the batching is
// invisible to the schedule while keeping the queue work sequential
// per kernel. All merge and batch storage is reused across rounds.
func (ss *ShardSet) drain() {
	G := len(ss.outbox)
	h := ss.merge[:0]
	for g := 0; g < G; g++ {
		if len(ss.outbox[g]) > 0 {
			h = append(h, int32(g))
		}
	}
	if len(h) == 0 {
		ss.merge = h
		return
	}
	start := time.Now()
	if ss.resolver == nil {
		panic("sim: shard set has posts but no resolver")
	}
	// Heapify (sources arrive in ascending group order, which is not
	// necessarily head-time order).
	ss.merge = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		ss.mergeFix(i)
	}
	for len(ss.merge) > 0 {
		g := ss.merge[0]
		p := ss.outbox[g][ss.head[g]]
		ss.outbox[g][ss.head[g]] = nil
		ss.head[g]++
		if ss.head[g] < len(ss.outbox[g]) {
			ss.mergeFix(0)
		} else {
			n := len(ss.merge) - 1
			ss.merge[0] = ss.merge[n]
			ss.merge = ss.merge[:n]
			ss.mergeFix(0)
		}

		grp, at, deliver := ss.resolver.Resolve(p)
		if deliver {
			if at < p.T+ss.lookahead {
				panic(fmt.Sprintf(
					"sim: lookahead violation: post sent at %v resolves to arrival %v, below the %v bound",
					p.T, at, ss.lookahead))
			}
			if p.CFn != nil || p.Fn != nil {
				e := ss.kernels[grp].book(at)
				if p.CFn != nil {
					e.cfn, e.arg = p.CFn, p.Arg
				} else {
					e.fn = p.Fn
				}
				ss.batch[grp] = append(ss.batch[grp], e)
			}
		}
		p.Fn, p.CFn, p.Arg = nil, nil, nil
		ss.free[p.SrcGroup] = append(ss.free[p.SrcGroup], p)
	}
	for grp, evs := range ss.batch {
		if len(evs) == 0 {
			continue
		}
		k := ss.kernels[grp]
		for i, e := range evs {
			k.qpush(e)
			evs[i] = nil
		}
		ss.batch[grp] = evs[:0]
	}
	for g := 0; g < G; g++ {
		ss.outbox[g] = ss.outbox[g][:0]
		ss.head[g] = 0
	}
	ss.drainWall += time.Since(start)
}

// DrainWall reports the cumulative wall-clock time spent inside the
// single-threaded barrier drain — the serial fraction that bounds
// parallel speedup (runbench records it as barrier_drain_sec). It is
// measurement, not model state: the simulation cannot observe it.
func (ss *ShardSet) DrainWall() time.Duration { return ss.drainWall }

// MaxPending reports the deepest any group's event queue ever got.
func (ss *ShardSet) MaxPending() int {
	max := 0
	for _, k := range ss.kernels {
		if n := k.MaxPending(); n > max {
			max = n
		}
	}
	return max
}

// Executed reports the total events retired across all groups.
func (ss *ShardSet) Executed() uint64 {
	var n uint64
	for _, k := range ss.kernels {
		n += k.Executed()
	}
	return n
}

// PerGroupExecuted reports each group's retired event count, in group
// order — the load-balance evidence behind any parallel speedup claim.
func (ss *ShardSet) PerGroupExecuted() []uint64 {
	out := make([]uint64, len(ss.kernels))
	for g, k := range ss.kernels {
		out[g] = k.Executed()
	}
	return out
}

// Fingerprint digests the terminal state of every group's kernel plus
// the cross-group send sequences, in group order. Like
// Kernel.Fingerprint it is the run-twice (and run-at-any-width)
// determinism oracle for sharded executions.
func (ss *ShardSet) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for g, k := range ss.kernels {
		put(k.Fingerprint())
		put(ss.postSeq[g])
	}
	return h.Sum64()
}
