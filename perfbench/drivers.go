package main

import (
	"zsim/internal/boundweave"
	"zsim/internal/core"
	"zsim/internal/stats"
	"zsim/internal/trace"
	"zsim/internal/virt"
)

// replayThreads bounds how many threads' block streams the core and cache
// replays copy and replay, keeping their memory small on 256-thread inputs.
const replayThreads = 64

// collect copies the dynamic block stream of one thread (the generator
// reuses its output block, so the replay needs copies), up to the SyncDone
// block.
func collect(wl *trace.Workload, tid int) []trace.DynBlock {
	th := wl.NewThread(tid)
	var out []trace.DynBlock
	for {
		b := th.NextBlock()
		if b.Sync == trace.SyncDone {
			return out
		}
		c := *b
		c.Addrs = append([]uint64(nil), b.Addrs...)
		out = append(out, c)
	}
}

// replay simulates the streams on cores, stream i on core i mod len(cores),
// and returns the simulated instructions.
func replay(streams [][]trace.DynBlock, cores []core.Core) uint64 {
	for i, s := range streams {
		c := cores[i%len(cores)]
		for j := range s {
			c.SimulateBlock(&s[j])
		}
	}
	var n uint64
	for _, c := range cores {
		n += c.Instrs()
	}
	return n
}

// layerDrivers times isolated calls into single layers on the workload's own
// programs, each under its own span, and derives from the spans' self times:
//
//   - isa.decode_ms: trace.New (code generation + decode), per program;
//   - trace.ns_per_block: the NewThread/NextBlock loop over every thread,
//     per generated block;
//   - core.ns_per_instr: replay of the copied streams through stand-alone
//     core models with empty MemPorts, per simulated instruction;
//   - cache.ns_per_instr: the same replay through the cores BuildSystem wires
//     to the hierarchy on a contention-off chip, per simulated instruction,
//     minus core.ns_per_instr;
//   - setup.build_system_ms and setup.new_simulator_ms: BuildSystem and
//     NewSimulator (closed at once) for the workload's chip, per program.
func layerDrivers(r *result, w *simWorkload, progs []program, tr *tracer) error {
	root := tr.begin("layer-drivers", 0)
	var blocks, coreInstrs, cacheInstrs float64
	for _, p := range progs {
		sp := tr.begin("drv/trace.New", root)
		wl := trace.New(p.name, p.params, w.threads)
		tr.end(sp)

		sp = tr.begin("drv/trace.NextBlock", root)
		for t := 0; t < w.threads; t++ {
			th := wl.NewThread(t)
			for th.NextBlock().Sync != trace.SyncDone {
				blocks++
			}
			blocks++ // the SyncDone block
		}
		tr.end(sp)

		streams := make([][]trace.DynBlock, min(w.threads, replayThreads))
		for t := range streams {
			streams[t] = collect(wl, t)
		}
		cfg := w.config()
		cores := make([]core.Core, len(streams))
		reg := stats.NewRegistry("replay")
		for i := range cores {
			if cfg.CoreModel == "ooo" {
				cores[i] = core.NewOOO(i, core.OOOWestmere(), core.MemPorts{}, reg)
			} else {
				cores[i] = core.NewIPC1(i, core.MemPorts{}, reg)
			}
		}
		sp = tr.begin("drv/core.SimulateBlock", root)
		coreInstrs += float64(replay(streams, cores))
		tr.end(sp)

		cfg.Contention = false
		cfg.NOCContention = false
		sys, err := boundweave.BuildSystem(cfg)
		if err != nil {
			return err
		}
		sp = tr.begin("drv/cache.SimulateBlock", root)
		cacheInstrs += float64(replay(streams, sys.Cores[:len(streams)]))
		tr.end(sp)

		cfg = w.config()
		sp = tr.begin("drv/boundweave.BuildSystem", root)
		sys, err = boundweave.BuildSystem(cfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		sched := virt.NewScheduler(cfg.NumCores)
		sched.AddWorkload(trace.NewIn(sys.Root.Arena(), p.name, p.params, w.threads))
		sp = tr.begin("drv/boundweave.NewSimulator", root)
		boundweave.NewSimulator(sys, sched, boundweave.Options{}).Close()
		tr.end(sp)
	}
	tr.end(root)

	self := tr.selfTimes()
	n := float64(len(progs))
	coreNs := ratio(float64(self["drv/core.SimulateBlock"]), coreInstrs)
	r.set(perLayer, "isa.decode_ms", float64(self["drv/trace.New"])/1e6/n)
	r.set(perLayer, "trace.ns_per_block", ratio(float64(self["drv/trace.NextBlock"]), blocks))
	r.set(perLayer, "core.ns_per_instr", coreNs)
	r.set(perLayer, "cache.ns_per_instr", ratio(float64(self["drv/cache.SimulateBlock"]), cacheInstrs)-coreNs)
	r.set(perLayer, "setup.build_system_ms", float64(self["drv/boundweave.BuildSystem"])/1e6/n)
	r.set(perLayer, "setup.new_simulator_ms", float64(self["drv/boundweave.NewSimulator"])/1e6/n)
	return nil
}
