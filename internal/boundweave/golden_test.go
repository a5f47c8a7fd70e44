package boundweave

import (
	"testing"

	"zsim/internal/config"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// goldenSig is the part of a run that the weave phase determines: the
// simulated cycle count, the number of weave events, the total contention
// feedback, L3 misses and router queueing delay.
type goldenSig struct {
	Cycles, WeaveEvents, TotalFeedback, L3Misses, NOCQueueDelay uint64
}

// goldenCase is one pinned run: a chip, a program and its thread count.
type goldenCase struct {
	name    string
	cfg     func() *config.System
	params  func() trace.Params
	threads int
	want    goldenSig
}

// hotspotParams is the mesh-hotspot traffic shape: half the memory
// operations are stores and 70% of accesses hit a 4 KiB write-shared
// region, so same-cycle events from many cores meet at routers and banks.
func hotspotParams() trace.Params {
	p := trace.DefaultParams()
	p.BlocksPerThread = 120
	p.ScaleWork = false
	p.MemFraction = 0.4
	p.StoreFraction = 0.5
	p.SharedWorkingSet = 4 << 10
	p.SharedFraction = 0.7
	p.WorkingSet = 128 << 10
	return p
}

var goldenCases = []goldenCase{
	{
		name: "tiled-ooo-ddr3",
		cfg: func() *config.System {
			c := config.TiledChip(4, config.CoreOOO)
			c.WeaveMem = config.WeaveMemDDR3
			return c
		},
		params: func() trace.Params {
			p := trace.DefaultParams()
			p.BlocksPerThread = 60
			p.SharedFraction = 0.3
			return p
		},
		threads: 64,
		want:    goldenSig{Cycles: 34956, WeaveEvents: 13057, TotalFeedback: 1560220, L3Misses: 1804},
	},
	{
		name: "cycle-driven-mem",
		cfg: func() *config.System {
			c := config.TiledChip(1, config.CoreIPC1)
			c.WeaveMem = config.WeaveMemCycleDriven
			return c
		},
		params: func() trace.Params {
			p := trace.DefaultParams()
			p.BlocksPerThread = 200
			p.WorkingSet = 8 << 20
			return p
		},
		threads: 16,
		want:    goldenSig{Cycles: 40579, WeaveEvents: 9813, TotalFeedback: 413593, L3Misses: 1525},
	},
	{
		name: "mesh-hotspot-noc",
		cfg: func() *config.System {
			c := config.TiledChip(4, config.CoreIPC1)
			c.NOCContention = true
			c.NOCLinkBytes = 4
			return c
		},
		params:  hotspotParams,
		threads: 32,
		want:    goldenSig{Cycles: 24766, WeaveEvents: 22903, TotalFeedback: 581625, L3Misses: 842, NOCQueueDelay: 1437627},
	},
}

// goldenRun runs one case on a single bound worker, which makes even
// shared-data workloads reproducible, and returns its signature.
func goldenRun(t *testing.T, c goldenCase) goldenSig {
	t.Helper()
	cfg := c.cfg()
	cfg.Contention = true
	sys, err := BuildSystem(cfg)
	if err != nil {
		t.Fatalf("BuildSystem: %v", err)
	}
	sched := virt.NewScheduler(cfg.NumCores)
	sched.AddWorkload(trace.New(c.name, c.params(), c.threads))
	sim := NewSimulator(sys, sched, Options{HostThreads: 1, Seed: 11})
	sim.Run()
	m := sys.Metrics()
	sig := goldenSig{Cycles: m.Cycles, WeaveEvents: sim.WeaveEvents, TotalFeedback: sim.TotalFeedback, L3Misses: m.L3Misses}
	if sys.Fabric != nil {
		sig.NOCQueueDelay = sys.Fabric.TotalStats().QueueDelay
	}
	return sig
}

// TestWeaveGoldenSignatures pins the weave-determined results of three
// contended chips to the values the two-executor engine produced before the
// weave became one event heap: any change to the weave order at a component
// moves at least one of them.
func TestWeaveGoldenSignatures(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			if got := goldenRun(t, c); got != c.want {
				t.Fatalf("signature %+v, want %+v", got, c.want)
			}
		})
	}
}
