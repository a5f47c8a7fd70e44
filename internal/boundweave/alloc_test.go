package boundweave

// Allocation-regression tests for the weave hot path. The tentpole property
// of the pooled pipeline is that a steady-state interval — recording access
// traces, building the event graph, running it, and truncating the logs —
// performs O(1) heap allocations once the graph, heap and hop logs have
// warmed up.

import (
	"testing"

	"zsim/internal/cache"
	"zsim/internal/config"
	"zsim/internal/telemetry"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// telemetryOpts attaches a live probe and a deliberately tiny trace sink to
// the alloc-gate simulators: publishing samples is atomic stores only, and a
// sink past capacity exercises the drop path — so the steady-state allocation
// contract must hold with full telemetry enabled, not just without it.
func telemetryOpts(o Options) Options {
	o.Probe = new(telemetry.Probe)
	o.Trace = telemetry.NewTraceSink(256)
	return o
}

// newContentionSim builds a small contended system whose weave path can be
// driven directly.
func newContentionSim(t *testing.T) *Simulator {
	t.Helper()
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 10
	sched.AddWorkload(trace.New("alloc", p, cfg.NumCores))
	return NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 1, Seed: 1}))
}

// fillRecorders injects one synthetic shared-touching trace per core through
// the cores' reusable buffers.
func fillRecorders(sim *Simulator, bufs [][]cache.Hop) {
	bankComp := sim.Sys.BankComp[0]
	memComp := sim.Sys.MemComp[0]
	for coreID, rec := range sim.recorders {
		buf := append(bufs[coreID][:0],
			cache.Hop{Comp: bankComp, Kind: cache.HopMiss, Line: uint64(64 + coreID), Cycle: 100, Latency: 10},
			cache.Hop{Comp: memComp, Kind: cache.HopMem, Line: uint64(64 + coreID), Cycle: 120, Latency: 120},
		)
		bufs[coreID] = rec.RecordAccess(coreID, 100, coreID%2 == 0, buf)
	}
}

func TestRunWeaveSteadyStateAllocs(t *testing.T) {
	sim := newContentionSim(t)
	defer sim.Close()
	bufs := make([][]cache.Hop, len(sim.recorders))
	iteration := func() {
		fillRecorders(sim, bufs)
		sim.runWeave()
	}
	// Warm up the graph, its heap and the hop logs.
	for i := 0; i < 3; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(20, iteration)
	if allocs > 2 {
		t.Fatalf("steady-state runWeave should be allocation-free, got %v allocs/run", allocs)
	}
}

func TestRecorderSteadyStateAllocs(t *testing.T) {
	shared := map[int]bool{7: true}
	rec := NewRecorder(0, shared)
	var buf []cache.Hop
	iteration := func() {
		for i := 0; i < 8; i++ {
			b := append(buf[:0],
				cache.Hop{Comp: 1, Kind: cache.HopMiss, Cycle: 10, Latency: 4},
				cache.Hop{Comp: 7, Kind: cache.HopHit, Cycle: 20, Latency: 14},
			)
			buf = rec.RecordAccess(0, 10, false, b)
		}
		rec.Reset()
	}
	for i := 0; i < 3; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(50, iteration)
	if allocs != 0 {
		t.Fatalf("steady-state record/reset cycle should not allocate, got %v allocs/run", allocs)
	}
}

// TestRecorderFlatHopLog checks the flat-log contract: a kept trace's hops
// are copied into the recorder's log and the caller's buffer comes back
// truncated, a private-only trace is dropped, and Reset truncates the log
// while keeping its capacity.
func TestRecorderFlatHopLog(t *testing.T) {
	rec := NewRecorder(0, map[int]bool{3: true})
	buf := append(make([]cache.Hop, 0, 8), cache.Hop{Comp: 1, Cycle: 5}, cache.Hop{Comp: 3, Cycle: 9})
	back := rec.RecordAccess(0, 1, true, buf)
	if len(back) != 0 || cap(back) != 8 || &back[:1][0] != &buf[0] {
		t.Fatalf("kept trace should hand back the caller's own buffer truncated, got len=%d cap=%d", len(back), cap(back))
	}
	buf[1].Cycle = 99 // the caller reuses its buffer; the log must hold a copy
	r := rec.recs[0]
	if got := rec.hops[r.start:r.end]; rec.Len() != 1 || len(got) != 2 || got[1].Cycle != 9 || r.issueCycle != 1 || !r.write {
		t.Fatalf("kept trace not copied into the log: rec=%+v hops=%+v", r, got)
	}

	// A private-only trace is dropped and bounces straight back.
	back = rec.RecordAccess(0, 2, false, append(back, cache.Hop{Comp: 1}))
	if len(back) != 0 || cap(back) != 8 || rec.Len() != 1 || len(rec.hops) != 2 || rec.Dropped != 1 {
		t.Fatalf("private-only trace should be dropped: len=%d hops=%d dropped=%d", rec.Len(), len(rec.hops), rec.Dropped)
	}

	logCap := cap(rec.hops)
	rec.Reset()
	if rec.Len() != 0 || len(rec.hops) != 0 || cap(rec.hops) != logCap {
		t.Fatalf("Reset should truncate the log and keep its capacity: len=%d hops=%d cap=%d (want %d)", rec.Len(), len(rec.hops), cap(rec.hops), logCap)
	}
}

// TestRunWeaveSteadyStateAllocsNOC is TestRunWeaveSteadyStateAllocs with the
// NoC contention subsystem enabled: traces now carry network hops that the
// translation loop expands into per-router events along the mesh route, and
// the whole pipeline — route walk, router events, port scheduling — must
// still be allocation-free once the graph and heap have warmed up.
func TestRunWeaveSteadyStateAllocsNOC(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = true
	cfg.Network = config.NetMesh // 2x2 mesh
	cfg.NOCContention = true
	cfg.NOCLinkBytes = 4
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 10
	sched.AddWorkload(trace.New("alloc-noc", p, cfg.NumCores))
	sim := NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 1, Seed: 1}))
	defer sim.Close()

	bankComp := sim.Sys.BankComp[0]
	memComp := sim.Sys.MemComp[0]
	bufs := make([][]cache.Hop, len(sim.recorders))
	iteration := func() {
		for coreID, rec := range sim.recorders {
			// A full path: corner-to-corner mesh route, bank access, the
			// bank's memory-egress link, then DRAM.
			buf := append(bufs[coreID][:0],
				cache.Hop{Comp: -1, Kind: cache.HopNet, Src: 0, Dst: 3, Line: uint64(64 + coreID), Cycle: 100, Latency: 5},
				cache.Hop{Comp: bankComp, Kind: cache.HopMiss, Line: uint64(64 + coreID), Cycle: 105, Latency: 10},
				cache.Hop{Comp: -1, Kind: cache.HopNetMem, Src: 3, Dst: 0, Line: uint64(64 + coreID), Cycle: 115, Latency: 1},
				cache.Hop{Comp: memComp, Kind: cache.HopMem, Line: uint64(64 + coreID), Cycle: 116, Latency: 120},
			)
			bufs[coreID] = rec.RecordAccess(coreID, 100, coreID%2 == 0, buf)
		}
		sim.runWeave()
	}
	for i := 0; i < 3; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(20, iteration)
	if allocs > 2 {
		t.Fatalf("steady-state runWeave with NoC contention should be allocation-free, got %v allocs/run", allocs)
	}
	if sys.Fabric.TotalStats().Traversals == 0 {
		t.Fatalf("NoC alloc test did not schedule any router traversals")
	}
}

// TestBoundPhaseSteadyStateAllocs covers the bound phase's half of the
// allocation contract: a steady-state interval — scheduling, round
// execution on the persistent pool, mid-interval arbitration and time
// multiplexing — must not allocate once queues, pending-op buffers and
// assignment slices have warmed up. (Goroutine spawns would show up here
// too: `go` allocates.)
func TestBoundPhaseSteadyStateAllocs(t *testing.T) {
	cfg := config.SmallTest()
	cfg.NumCores = 4
	cfg.Contention = false
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	p := trace.DefaultParams()
	p.BlocksPerThread = 1 << 30 // effectively endless: intervals keep running
	p.WorkingSet = 16 << 10
	p.LockEvery = 24 // lock arbitration rounds
	p.NumLocks = 2
	p.LockHoldBlocks = 2
	p.BlockedSyscallEvery = 40 // syscall leave/join rounds
	p.BlockedSyscallCycles = 1500
	sched.AddWorkload(trace.New("alloc-bound", p, 6)) // oversubscribed: 6 threads, 4 cores
	sim := NewSimulator(sys, sched, telemetryOpts(Options{HostThreads: 2, Seed: 3}))
	iteration := func() { sim.runInterval() }
	// Long warmup: beyond queues, the lazily allocated cache set
	// arrays must all have been touched before measuring.
	for i := 0; i < 400; i++ {
		iteration()
	}
	allocs := testing.AllocsPerRun(50, iteration)
	if allocs > 2 {
		t.Fatalf("steady-state bound interval should be allocation-free, got %v allocs/run", allocs)
	}
}
