// Package machine assembles a complete simulated Intel Paragon: a 2-D
// mesh with compute nodes on one row and I/O nodes (each with a RAID
// array and a UFS) on another, plus a mounted PFS. This is the object
// workloads and experiments program against.
package machine

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/disk"
	"repro/internal/ionode"
	"repro/internal/mesh"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/ufs"
)

// CrashPlan schedules whole-I/O-node crashes: Count nodes (drawn with a
// seeded generator, possibly the same node twice) crash at times drawn
// uniformly from (Start, Start+Window] and restart Downtime later. The
// zero plan disables crashes. Overlapping intervals on one node merge
// into a single longer outage.
type CrashPlan struct {
	Count    int      // crashes to schedule (0 disables)
	Seed     int64    // draws the victims and crash times
	Start    sim.Time // earliest crash time
	Window   sim.Time // crash times fall in (Start, Start+Window]
	Downtime sim.Time // outage length per crash
}

// Enabled reports whether the plan schedules any crash.
func (cp CrashPlan) Enabled() bool { return cp.Count > 0 }

// MemberFailPlan kills one RAID member permanently at time At (0
// disables): the array runs degraded from then on, rebuilding onto a hot
// spare if Config.Rebuild is armed.
type MemberFailPlan struct {
	At     sim.Time // when the drive dies (0 disables)
	Array  int      // which I/O node's array
	Member int      // which member disk
}

// Enabled reports whether a member failure is scheduled.
func (mp MemberFailPlan) Enabled() bool { return mp.At > 0 }

// PrefetchOptions carries machine-level defaults for the client
// prefetcher: a predictor policy name and an online controller
// configuration. workload.Run applies them to any Spec that enables
// prefetching without choosing its own; the zero value changes nothing.
//
// The structs mirror prefetch.Config's Policy/ControllerConfig fields
// instead of importing them — machine models hardware, prefetch is
// client software policy, and the prefetch package's own tests build
// machines. The field-for-field struct conversion in workload keeps the
// mirror honest at compile time.
type PrefetchOptions struct {
	// Policy names the predictor: "", "mode", "sequential", "stride", or
	// "hybrid" (see prefetch.NewPolicy).
	Policy string
	// Controller arms the online Depth/MaxBuffers controller when its
	// Interval is non-zero (see prefetch.ControllerConfig).
	Controller PrefetchController
}

// PrefetchController mirrors prefetch.ControllerConfig field for field
// (workload converts between the two), so it survives the machine
// config's JSON round-trip without an interface in sight.
type PrefetchController struct {
	Interval     int64
	MinDepth     int
	MaxDepth     int
	MinBuffers   int
	MaxBuffers   int
	Step         int
	LowHit       float64
	HighHit      float64
	ServiceSlack float64
}

// Config describes the machine to build. Zero values are filled from
// DefaultConfig by Build, so callers can override selectively.
type Config struct {
	ComputeNodes int
	IONodes      int

	Mesh          mesh.Config // geometry fields are set by Build
	DiskGeometry  disk.Geometry
	DiskSched     disk.Sched
	ArrayMembers  int      // disks per I/O node RAID array
	ArrayOverhead sim.Time // RAID controller overhead per request
	Dispatch      sim.Time // I/O node daemon per-request CPU
	UFS           ufs.Config
	PFS           pfs.Config

	// Shards selects the execution engine. 0 runs the classic
	// single-kernel event loop — bit-for-bit the legacy behaviour, with
	// the legacy golden digests. n ≥ 1 runs the sharded
	// conservative-lookahead engine (sim.ShardSet) with n workers over a
	// fixed node-group partition: group 0 holds the compute side (every
	// compute node, the PFS client, workloads, prefetching), and each
	// I/O node's server/UFS/array/disks form their own group. Because
	// the partition is fixed and cross-group traffic is merged in the
	// canonical (time, shard, seq) order, results are bit-identical at
	// every n ≥ 1; shards=1 is the serial baseline the parallel runs
	// are measured against.
	Shards int

	// IOGroups bounds the number of I/O-side shard groups in sharded
	// mode. 0 keeps the legacy partition — one group per I/O node —
	// which is bit-identical to the pinned goldens but scales the
	// per-round barrier cost of the conservative engine with the node
	// count (every ~20µs lookahead window visits every group). n ≥ 1
	// tiles the I/O partition into n contiguous groups of near-equal
	// size, so a 1024×256 machine runs on 1+n kernels instead of 257.
	// All nodes of a group share one kernel; the partition is fixed at
	// build time, so results stay bit-identical at every worker count.
	// Ignored in legacy mode (Shards == 0).
	IOGroups int

	// DiskFaultRate arms per-request fault injection on every member
	// disk (0 disables). Faults surface as read errors at the
	// application, with the prefetcher falling back to direct reads.
	DiskFaultRate float64
	FaultSeed     int64

	// DiskFaultTransientFrac and DiskFaultPermanentFrac classify faults
	// (see disk.FaultProfile): a transient fault succeeds on re-read, a
	// permanent one pins its sector dead. Both zero keeps the legacy
	// one-shot fault behaviour bit-for-bit.
	DiskFaultTransientFrac float64
	DiskFaultPermanentFrac float64
	// DiskFaultJitter stretches per-request service times by up to this
	// fraction while fault injection is armed (0 disables).
	DiskFaultJitter float64

	// Prefetch supplies machine-level prefetcher defaults (policy name
	// and online controller) that workload.Run layers under any Spec
	// that enables prefetching without choosing its own.
	Prefetch PrefetchOptions

	// Shed installs the I/O-node fault breaker on every server: after
	// Threshold consecutive disk faults a node fast-fails requests for
	// Cooldown. The zero policy disables shedding.
	Shed ionode.ShedPolicy

	// Fair installs the per-tenant weighted fair scheduler and
	// token-bucket admission on every server. The zero policy disables
	// it — requests reach the disk in arrival order, byte-identical to
	// the pre-QoS machine.
	Fair ionode.FairPolicy

	// Crash schedules whole-I/O-node crash–restart cycles.
	Crash CrashPlan
	// MemberFail kills one RAID member for good at a fixed time.
	MemberFail MemberFailPlan
	// Rebuild, when its Chunk is non-zero, starts the online rebuild onto
	// a hot spare as soon as the member fails (ignored with NoParity).
	Rebuild disk.RebuildPolicy
	// NoParity strips the arrays of their parity: a dead member makes
	// every request touching the array fail instead of running degraded.
	// This is the failover-off twin configuration simcheck uses to prove
	// the parity path matters.
	NoParity bool
}

// DefaultConfig returns the paper's evaluation platform: 8 compute nodes
// and 8 I/O nodes with SCSI RAID arrays, 64 KB file system blocks, and a
// 64 KB default stripe unit across all 8 I/O nodes.
func DefaultConfig() Config {
	return Config{
		ComputeNodes:  8,
		IONodes:       8,
		Mesh:          mesh.Paragon(8, 2),
		DiskGeometry:  disk.Seagate94601(),
		DiskSched:     disk.SCAN,
		ArrayMembers:  4,
		ArrayOverhead: 2 * sim.Millisecond,
		Dispatch:      1 * sim.Millisecond,
		UFS:           ufs.DefaultConfig(),
		PFS:           pfs.DefaultConfig(),
	}
}

// Machine is a built simulation instance. K is the compute-side kernel:
// the single global kernel in legacy mode, shard group 0's kernel in
// sharded mode (workload processes always spawn there).
type Machine struct {
	K       *sim.Kernel
	Mesh    *mesh.Mesh
	Servers []*ionode.Server
	Arrays  []*disk.Array
	FS      *pfs.FileSystem
	Compute []int // mesh addresses of the compute nodes
	cfg     Config

	ss         *sim.ShardSet  // nil in legacy mode
	userTrace  *trace.Log     // the log handed to SetTrace
	shardTrace *trace.Sharded // per-group buckets, merged after Run
}

// Build constructs the machine on a near-square mesh (the Paragon's
// meshes were roughly square, which is what gives broadcasts and
// all-to-alls their bisection bandwidth): compute nodes fill the grid
// row-major from the origin, I/O nodes take the following slots.
func Build(cfg Config) *Machine {
	if cfg.ComputeNodes <= 0 || cfg.IONodes <= 0 {
		panic(fmt.Sprintf("machine: need compute and I/O nodes, got %d/%d", cfg.ComputeNodes, cfg.IONodes))
	}
	if cfg.ArrayMembers <= 0 {
		cfg.ArrayMembers = 4
	}
	total := cfg.ComputeNodes + cfg.IONodes
	w := 1
	for w*w < total {
		w++
	}
	h := (total + w - 1) / w
	cfg.Mesh.Width = w
	cfg.Mesh.Height = h

	var ss *sim.ShardSet
	var k *sim.Kernel
	if cfg.Shards > 0 {
		// The compute-side group 0 plus the I/O-side groups (one per
		// I/O node by default, IOGroups contiguous tiles when bounded).
		// The lookahead is the mesh's minimum cross-node latency, the
		// largest window that is still conservative (see
		// mesh.MinLookahead).
		groups := cfg.IONodes
		if cfg.IOGroups > 0 && cfg.IOGroups < groups {
			groups = cfg.IOGroups
		}
		ss = sim.NewShardSet(1+groups, cfg.Mesh.HopLatency+cfg.Mesh.RecvOverhead)
		k = ss.Kernel(0)
	} else {
		k = sim.NewKernel()
	}
	m := mesh.New(k, cfg.Mesh)
	mach := &Machine{K: k, Mesh: m, cfg: cfg, ss: ss}
	for i := 0; i < cfg.ComputeNodes; i++ {
		mach.Compute = append(mach.Compute, i)
	}
	for i := 0; i < cfg.IONodes; i++ {
		ki := k
		if ss != nil {
			ki = ss.Kernel(mach.ioGroup(i))
		}
		array := disk.NewArray(ki, fmt.Sprintf("raid%d", i), cfg.ArrayMembers,
			cfg.DiskGeometry, cfg.DiskSched, cfg.ArrayOverhead)
		mach.Arrays = append(mach.Arrays, array)
		if cfg.DiskFaultRate > 0 {
			for j, d := range array.Members() {
				d.InjectFaultProfile(disk.FaultProfile{
					Rate:          cfg.DiskFaultRate,
					TransientFrac: cfg.DiskFaultTransientFrac,
					PermanentFrac: cfg.DiskFaultPermanentFrac,
					Jitter:        cfg.DiskFaultJitter,
					Seed:          cfg.FaultSeed + int64(i*100+j),
				})
			}
		}
		if cfg.NoParity {
			array.SetParity(false)
		}
		ucfg := cfg.UFS
		ucfg.Seed = cfg.UFS.Seed + int64(i)*7919 // distinct, deterministic layouts
		fs := ufs.New(ki, array, ucfg)
		srv := ionode.New(ki, m, cfg.ComputeNodes+i, fs, cfg.Dispatch)
		srv.SetShedPolicy(cfg.Shed)
		srv.SetFairPolicy(cfg.Fair)
		if ss != nil {
			// Reply-delivery callbacks run on the requesters' shard;
			// service-time observation must read that clock.
			srv.SetReplyClock(k)
		}
		mach.Servers = append(mach.Servers, srv)
	}
	mach.FS = pfs.Mount(k, m, mach.Servers, cfg.PFS)
	if cfg.Fair.Enabled() {
		mach.FS.SetTenants(cfg.Fair.Tenants)
	}
	if ss != nil {
		groupOf := make([]int, m.Nodes()) // compute + grid-slack slots → group 0
		for i := 0; i < cfg.IONodes; i++ {
			groupOf[cfg.ComputeNodes+i] = mach.ioGroup(i)
		}
		m.BindShards(ss, groupOf)
	}
	mach.scheduleCrashes(cfg.Crash)
	mach.scheduleMemberFail(cfg)
	return mach
}

// ioGroups reports the number of I/O-side shard groups: IONodes by
// default, Config.IOGroups when it bounds the partition.
func (m *Machine) ioGroups() int {
	g := m.cfg.IOGroups
	if g <= 0 || g > m.cfg.IONodes {
		return m.cfg.IONodes
	}
	return g
}

// ioGroup maps I/O node i to its shard-group index (group 0 is the
// compute side). Tiles are contiguous and near-equal: node i lands in
// tile i*groups/IONodes.
func (m *Machine) ioGroup(i int) int {
	return 1 + i*m.ioGroups()/m.cfg.IONodes
}

// scheduleCrashes pre-plans the whole-node outages: victims and crash
// times come from the plan's own generator at build time, so the
// schedule is fixed before the first event runs and identical across
// runs. Overlapping outages of one node merge.
func (m *Machine) scheduleCrashes(plan CrashPlan) {
	if !plan.Enabled() {
		return
	}
	if plan.Window <= 0 || plan.Downtime <= 0 {
		panic(fmt.Sprintf("machine: crash plan needs positive Window and Downtime, got %v/%v",
			plan.Window, plan.Downtime))
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	type outage struct{ at, until sim.Time }
	perNode := make([][]outage, len(m.Servers))
	for c := 0; c < plan.Count; c++ {
		node := rng.Intn(len(m.Servers))
		at := plan.Start + sim.Time(1+rng.Int63n(int64(plan.Window)))
		perNode[node] = append(perNode[node], outage{at: at, until: at + plan.Downtime})
	}
	for i, list := range perNode {
		if len(list) == 0 {
			continue
		}
		sort.Slice(list, func(a, b int) bool { return list[a].at < list[b].at })
		merged := []outage{list[0]}
		for _, o := range list[1:] {
			if last := &merged[len(merged)-1]; o.at <= last.until {
				if o.until > last.until {
					last.until = o.until
				}
			} else {
				merged = append(merged, o)
			}
		}
		srv := m.Servers[i]
		if m.ss != nil {
			// Sharded mode: the crash/restart events run on the victim's
			// own shard, and cross-shard health queries (mesh delivery,
			// client down-polling) consult the static schedule instead of
			// runtime flags — same send-time semantics, no shared state.
			ki := m.ss.Kernel(m.ioGroup(i))
			sched := make([]ionode.Outage, 0, len(merged))
			for _, o := range merged {
				o := o
				ki.At(o.at, func() { srv.Crash(o.until) })
				ki.At(o.until, func() { srv.Restart() })
				m.Mesh.AddOutage(srv.Node(), o.at, o.until)
				sched = append(sched, ionode.Outage{At: o.at, Until: o.until})
			}
			srv.SetOutageSchedule(sched)
			continue
		}
		for _, o := range merged {
			o := o
			m.K.At(o.at, func() {
				m.Mesh.SetDown(srv.Node(), true)
				srv.Crash(o.until)
			})
			m.K.At(o.until, func() {
				m.Mesh.SetDown(srv.Node(), false)
				srv.Restart()
			})
		}
	}
}

// scheduleMemberFail arms the RAID member death (and, when configured,
// the online rebuild that follows it).
func (m *Machine) scheduleMemberFail(cfg Config) {
	if !cfg.MemberFail.Enabled() {
		return
	}
	ai, mi := cfg.MemberFail.Array, cfg.MemberFail.Member
	if ai < 0 || ai >= len(m.Arrays) {
		panic(fmt.Sprintf("machine: member-fail array %d outside %d arrays", ai, len(m.Arrays)))
	}
	if mi < 0 || mi >= len(m.Arrays[ai].Members()) {
		panic(fmt.Sprintf("machine: member-fail member %d outside array of %d", mi, len(m.Arrays[ai].Members())))
	}
	array := m.Arrays[ai]
	rebuild := cfg.Rebuild
	noParity := cfg.NoParity
	ka := m.K
	if m.ss != nil {
		ka = m.ss.Kernel(m.ioGroup(ai)) // the member death fires on its array's shard
	}
	ka.At(cfg.MemberFail.At, func() {
		array.FailMember(mi)
		if rebuild.Chunk > 0 && !noParity {
			array.StartRebuild(rebuild)
		}
	})
}

// SetTrace attaches tl to every server and array so node crashes,
// degraded reads, and rebuild progress appear on the workload timeline
// alongside the PFS events. In sharded mode each node group writes to
// its own bucket (a Log is single-context) and Run merges the buckets
// into tl canonically; client-side producers must use ClientTrace.
func (m *Machine) SetTrace(tl *trace.Log) {
	m.userTrace = tl
	if m.ss != nil {
		// One bucket per shard group: servers sharing a group share a
		// kernel (single context), so they can share a Log too.
		m.shardTrace = trace.NewSharded(1+m.ioGroups(), tl.Cap())
		for i, s := range m.Servers {
			b := m.shardTrace.Bucket(m.ioGroup(i))
			s.SetTrace(b)
			m.Arrays[i].SetTrace(b, s.Node())
		}
		return
	}
	for i, s := range m.Servers {
		s.SetTrace(tl)
		m.Arrays[i].SetTrace(tl, s.Node())
	}
}

// ClientTrace returns the log compute-side producers (the PFS client,
// prefetching, workloads) should append to: shard group 0's bucket in
// sharded mode, the SetTrace log otherwise. Nil until SetTrace is
// called.
func (m *Machine) ClientTrace() *trace.Log {
	if m.shardTrace != nil {
		return m.shardTrace.Bucket(0)
	}
	return m.userTrace
}

// Run executes the simulation to completion: the sharded engine with
// Config.Shards workers when sharding is enabled, the single kernel
// otherwise. Sharded trace buckets are merged into the SetTrace log
// before returning (even on error, so partial timelines are visible).
//
// On every exit path — normal end, process panic, deadlock error —
// Run releases the processes the simulation started (sim.Kernel.Release),
// so a finished machine holds no goroutines. Its results, counters and
// fingerprints stay readable; it cannot be run again.
func (m *Machine) Run() error {
	if m.ss != nil {
		defer m.ss.Release()
		err := m.ss.Run(m.cfg.Shards)
		if m.shardTrace != nil && m.userTrace != nil {
			m.shardTrace.MergeInto(m.userTrace)
			m.shardTrace = nil // ClientTrace now resolves to the merged log
		}
		return err
	}
	defer m.K.Release()
	return m.K.Run()
}

// Executed reports the events executed so far across all kernels.
func (m *Machine) Executed() uint64 {
	if m.ss != nil {
		return m.ss.Executed()
	}
	return m.K.Executed()
}

// PerGroupExecuted reports per-shard-group event counts in sharded mode
// (nil otherwise) — the load-balance evidence benchmarks record.
func (m *Machine) PerGroupExecuted() []uint64 {
	if m.ss != nil {
		return m.ss.PerGroupExecuted()
	}
	return nil
}

// MaxQueueDepth reports the deepest any kernel's event queue ever got —
// a deterministic property of the schedule (runbench records it as
// max_queue_depth).
func (m *Machine) MaxQueueDepth() int {
	if m.ss != nil {
		return m.ss.MaxPending()
	}
	return m.K.MaxPending()
}

// BarrierDrainWall reports cumulative wall-clock time spent in the
// sharded engine's single-threaded barrier drain (zero in legacy mode)
// — the serial fraction bounding parallel speedup.
func (m *Machine) BarrierDrainWall() time.Duration {
	if m.ss != nil {
		return m.ss.DrainWall()
	}
	return 0
}

// KernelFingerprint hashes the execution history: the kernel's own
// fingerprint in legacy mode (identical bits to K.Fingerprint), the
// shard set's combined per-group fingerprint in sharded mode.
func (m *Machine) KernelFingerprint() uint64 {
	if m.ss != nil {
		return m.ss.Fingerprint()
	}
	return m.K.Fingerprint()
}

// Config returns the configuration the machine was built with (geometry
// fields filled in).
func (m *Machine) Config() Config { return m.cfg }

// IONodeBytes reports the bytes served by each I/O node so far.
func (m *Machine) IONodeBytes() []int64 {
	out := make([]int64, len(m.Servers))
	for i, s := range m.Servers {
		out[i] = s.BytesServed
	}
	return out
}

// DiskUtilization reports the mean busy fraction across all member disks
// at the current simulated time.
func (m *Machine) DiskUtilization() float64 {
	now := m.K.Now()
	if now == 0 {
		return 0
	}
	var sum float64
	var n int
	for _, a := range m.Arrays {
		for _, d := range a.Members() {
			sum += d.Busy.Fraction(now)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
