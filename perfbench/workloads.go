package main

import (
	"fmt"

	"zsim"
)

// defaultSeed is the workload seed whose simulated signatures are recorded in
// signatures.json and checked bit for bit.
const defaultSeed = 1

// program is one synthetic program a simulation workload runs, under one
// seed: label tells the seed instances of a program apart.
type program struct {
	name, label string
	seed        uint64
	params      zsim.WorkloadParams
}

// simWorkload is a simulation workload: a chip configuration and the
// programs run on it back to back, one fresh simulator each, all at the same
// thread count. One pass over the programs is a round.
type simWorkload struct {
	name    string
	threads int
	// blocks is the per-thread basic-block budget of every program, chosen
	// so that a round takes about two host seconds on a 2-vCPU host.
	blocks int
	// instances is how many seeds, derived from the workload seed, each
	// program runs under per round. The seed generates a program's code as
	// well as its data, so host cost per instruction varies from seed to
	// seed; several smaller instances average that out of each run.
	instances int
	config    func() *zsim.Config
	programs  func() []program
}

// parsecSplash are the Table 4 programs the tiled workloads run: a
// compute-bound kernel, a pointer chaser over a huge shared set, a
// lock-and-barrier program and a streaming stencil.
func parsecSplash() []program {
	var ps []program
	for _, n := range []string{"blackscholes", "canneal", "fluidanimate", "ocean"} {
		p, _ := zsim.LookupWorkload(n)
		ps = append(ps, program{name: n, params: p})
	}
	return ps
}

// meshHotspot is the hotspot traffic generator of the mesh NoC experiment
// (harness.MeshHotspot): half the memory operations are stores, 70% of
// accesses hit a 4 KiB write-shared region, and private data stays
// L2-resident, so coherence traffic through narrow mesh links dominates.
func meshHotspot() []program {
	p := zsim.DefaultWorkloadParams()
	p.ScaleWork = false
	p.MemFraction = 0.4
	p.StoreFraction = 0.5
	p.SharedWorkingSet = 4 << 10
	p.SharedFraction = 0.7
	p.WorkingSet = 128 << 10
	return []program{{name: "mesh-hotspot", params: p}}
}

var simWorkloads = []*simWorkload{
	{
		// Table 4 OOO-C: weave over L3 banks and DDR3 is most of Run.
		name: "ooo64-contended", threads: 64, blocks: 80, instances: 2,
		config:   func() *zsim.Config { return zsim.TiledConfig(4, "ooo") },
		programs: parsecSplash,
	},
	{
		// Table 4 IPC1-NC: bound phase only, zero weave events.
		name: "ipc1-256-bound", threads: 256, blocks: 1000, instances: 1,
		config: func() *zsim.Config {
			c := zsim.TiledConfig(16, "ipc1")
			c.Contention = false
			return c
		},
		programs: parsecSplash,
	},
	{
		// Weave over routers: NoC contention on 4-byte links, 4 domains.
		name: "mesh64-hotspot-noc", threads: 64, blocks: 200, instances: 4,
		config: func() *zsim.Config {
			c := zsim.TiledConfig(4, "ipc1")
			c.NOCContention = true
			c.NOCLinkBytes = 4
			c.WeaveDomains = 4
			return c
		},
		programs: meshHotspot,
	},
}

// sweepJob is client A's campaign job at 16 cores (see sweepBase) as a
// simulation workload, for the simulation-layer metrics of zsimd-sweep.
func sweepJob() *simWorkload {
	base := sweepBase(1)
	spec := base.Workloads[0]
	return &simWorkload{
		name: "zsimd-sweep-job", threads: spec.Threads, blocks: spec.Blocks, instances: 1,
		config: func() *zsim.Config { return zsim.TiledConfig(base.Tiles, base.CoreModel) },
		programs: func() []program {
			p, _ := zsim.LookupWorkload(spec.Name)
			return []program{{name: spec.Name, params: p}}
		},
	}
}

// sweepWorkload is the name of the zsimd service workload.
const sweepWorkload = "zsimd-sweep"

// workloadNames lists every workload in BENCHMARK.json order.
func workloadNames() []string {
	var ns []string
	for _, w := range simWorkloads {
		ns = append(ns, w.name)
	}
	return append(ns, sweepWorkload)
}

func lookupSim(name string) *simWorkload {
	for _, w := range simWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs returns one round's programs: every program under each instance
// seed (instance k of workload seed s runs seed s + k<<32, so instance 0 runs
// s itself), sized to scale times the workload's block budget (at least one
// block).
func (w *simWorkload) inputs(seed uint64, scale float64) []program {
	blocks := max(int(float64(w.blocks)*scale), 1)
	var ps []program
	for k := 0; k < w.instances; k++ {
		for _, p := range w.programs() {
			p.seed = seed + uint64(k)<<32
			p.label = fmt.Sprintf("%s#%d", p.name, k)
			p.params.Seed = p.seed
			p.params.BlocksPerThread = blocks
			ps = append(ps, p)
		}
	}
	return ps
}
