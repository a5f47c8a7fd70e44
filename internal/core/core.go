// Package core implements the instruction-driven core timing models that are
// the paper's first contribution: a simple IPC=1 core and a detailed
// Westmere-class out-of-order core. Both are driven once per µop (or block)
// by the dynamic instruction stream, rather than being stepped every cycle
// (cycle-driven) or scheduled through a priority queue (event-driven). All
// per-instruction decode work (µop fission, port masks, latencies, frontend
// stall cycles) was already done once per static block by the isa.Decoder, so
// the per-µop work here is a handful of clock updates — this is what gives
// the 10-100x core-model speedup over conventional simulators.
package core

import (
	"zsim/internal/arena"
	"zsim/internal/bpred"
	"zsim/internal/cache"
	"zsim/internal/stats"
	"zsim/internal/trace"
)

// Core is the interface shared by the IPC1 and OOO core models. A core is
// driven by one host thread at a time (the bound phase barrier guarantees
// this), so implementations are not internally synchronized.
type Core interface {
	// SimulateBlock advances the core's timing state over one dynamic basic
	// block, performing the instruction-cache and data-cache accesses it
	// implies.
	SimulateBlock(b *trace.DynBlock)
	// Cycle returns the core's current cycle (the retire-stage clock).
	Cycle() uint64
	// Instrs returns the number of instructions simulated.
	Instrs() uint64
	// Uops returns the number of µops simulated.
	Uops() uint64
	// AddDelay applies weave-phase feedback: it advances every internal clock
	// by the given number of cycles (the contention-induced delay of the
	// core's accesses in the previous interval).
	AddDelay(cycles uint64)
	// SetCycle fast-forwards the core's clocks to at least the given cycle
	// (used when a descheduled thread is rescheduled onto the core, and at
	// interval joins).
	SetCycle(cycle uint64)
	// ContextSwitch notifies the core that a different software thread is
	// about to run on it (mid-interval rescheduling or time multiplexing):
	// transient micro-state tied to the outgoing thread's instruction stream
	// (e.g. the last-fetched I-cache line) is invalidated so the incoming
	// thread pays its own first fetch.
	ContextSwitch()
	// SetRecorder installs the bound-phase access recorder used to build
	// weave events; a nil recorder (the default) disables recording.
	SetRecorder(rec AccessRecorder)
	// SetObserver installs a line-granularity access observer (used by the
	// path-altering-interference profiler); nil disables it.
	SetObserver(obs cache.AccessObserver)
	// Reset restores the core to its just-constructed state (clocks, branch
	// predictor, pipeline structures, transient fetch state) for
	// warm-simulator reuse. Registry-owned counters are zeroed separately by
	// the stats tree's Reset; installed recorders and observers are removed
	// (the simulator re-installs them). The core must be quiescent.
	Reset()
	// ID returns the core's index in the simulated chip.
	ID() int
	// Name returns the core model's name ("ipc1" or "ooo").
	Name() string
	// BranchStats returns (predicted, mispredicted) branch counts.
	BranchStats() (uint64, uint64)
}

// AccessRecorder receives, for every memory access that leaves the core while
// recording is enabled, the zero-load issue cycle and the hierarchy hops the
// access performed. The bound-weave driver uses it to build weave events for
// accesses that miss beyond the private levels.
//
// RecordAccess copies whatever it keeps of hops and returns the caller's
// buffer truncated to length 0, so a core reuses one hop buffer forever and
// the steady-state record path is allocation-free. write distinguishes
// stores (which do not stall the core) from loads, so the weave phase can
// serialize a core's access stream behind its loads only.
type AccessRecorder interface {
	RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop
}

// MemPorts bundles the cache ports a core issues accesses to.
type MemPorts struct {
	L1I cache.Level
	L1D cache.Level
}

// memUnit is the access machinery shared by the core models: the cache
// ports, the installed recorder and observer, and the pooled request plus
// reused hop buffer that make the steady-state access path
// allocation-free. Core models embed it and issue every hierarchy access
// through its access method.
type memUnit struct {
	id    int
	ports MemPorts
	rec   AccessRecorder
	obs   cache.AccessObserver

	// req is the core's reusable request (one access is in flight at a time)
	// and hopBuf the hop buffer every traced access reuses.
	req    cache.Request
	hopBuf []cache.Hop
}

// ID returns the core's index.
func (m *memUnit) ID() int { return m.id }

// SetRecorder installs the access recorder.
func (m *memUnit) SetRecorder(rec AccessRecorder) { m.rec = rec }

// SetObserver installs the line-access observer.
func (m *memUnit) SetObserver(obs cache.AccessObserver) { m.obs = obs }

// reset clears the unit's transient state (in-flight request, installed
// recorder and observer) while keeping the identity, ports and the reused
// hop buffer's capacity. A fresh core's hop buffer is nil and a reused one is
// a zero-length warm buffer; both are fully overwritten before any read.
func (m *memUnit) reset() {
	m.rec = nil
	m.obs = nil
	m.req = cache.Request{}
	m.hopBuf = m.hopBuf[:0]
}

// access issues one request to a cache port, recording hops when a recorder
// is installed. The request struct and the hop buffer are reused across
// accesses, so the steady-state access path allocates nothing.
func (m *memUnit) access(port cache.Level, lineAddr uint64, write bool, cycle uint64) uint64 {
	if port == nil {
		return cycle
	}
	m.req = cache.Request{
		LineAddr:   lineAddr,
		Write:      write,
		CoreID:     m.id,
		Cycle:      cycle,
		Hops:       m.hopBuf[:0],
		RecordHops: m.rec != nil,
		Prof:       m.obs,
	}
	avail := port.Access(&m.req)
	if m.rec != nil && len(m.req.Hops) > 0 {
		m.hopBuf = m.rec.RecordAccess(m.id, cycle, write, m.req.Hops)
	} else {
		m.hopBuf = m.req.Hops
	}
	m.req.Hops = nil
	return avail
}

// Counters groups the statistic counters every core model maintains.
type Counters struct {
	Instrs     *stats.Counter
	Uops       *stats.Counter
	Cycles     *stats.Counter
	Loads      *stats.Counter
	Stores     *stats.Counter
	Fetches    *stats.Counter
	BrPred     *stats.Counter
	BrMiss     *stats.Counter
	FetchStall *stats.Counter
	IssueStall *stats.Counter
}

func newCounters(reg *stats.Registry) Counters {
	return Counters{
		Instrs:     reg.Counter("instrs", "instructions simulated"),
		Uops:       reg.Counter("uops", "µops simulated"),
		Cycles:     reg.Counter("cycles", "core cycles elapsed"),
		Loads:      reg.Counter("loads", "load µops issued to the L1D"),
		Stores:     reg.Counter("stores", "store µops issued to the L1D"),
		Fetches:    reg.Counter("fetches", "instruction-fetch accesses to the L1I"),
		BrPred:     reg.Counter("branchPredictions", "conditional branches predicted"),
		BrMiss:     reg.Counter("branchMispredicts", "conditional branches mispredicted"),
		FetchStall: reg.Counter("fetchStallCycles", "cycles lost to frontend stalls"),
		IssueStall: reg.Counter("issueStallCycles", "cycles lost to backend (issue) stalls"),
	}
}

// IPC1 is the simple core model: one cycle per instruction, plus the memory
// hierarchy's latency for loads (stores are buffered and do not stall), plus
// instruction-fetch stalls. It is the model architects use for quick cache
// studies, and the "IPC1" configuration of the paper's evaluation.
type IPC1 struct {
	memUnit
	cnt Counters

	cycle     uint64
	lastFetch uint64 // line address of the last fetched I-cache line
	pred      *bpred.Stats
}

// NewIPC1 creates a simple core. When the registry tree carries a
// construction arena, the core object and its predictor tables are carved
// from it.
func NewIPC1(id int, ports MemPorts, reg *stats.Registry) *IPC1 {
	a := reg.Arena()
	c := arena.One[IPC1](a)
	c.memUnit = memUnit{id: id, ports: ports}
	c.cnt = newCounters(reg)
	c.pred = bpred.NewStatsIn(a, bpred.NewDefaultIn(a))
	return c
}

// Name returns "ipc1".
func (c *IPC1) Name() string { return "ipc1" }

// Cycle returns the core's current cycle.
func (c *IPC1) Cycle() uint64 { return c.cycle }

// Instrs returns the instruction count.
func (c *IPC1) Instrs() uint64 { return c.cnt.Instrs.Get() }

// Uops returns the µop count.
func (c *IPC1) Uops() uint64 { return c.cnt.Uops.Get() }

// BranchStats returns (predictions, mispredictions).
func (c *IPC1) BranchStats() (uint64, uint64) { return c.pred.Predictions, c.pred.Mispredicts }

// AddDelay applies weave-phase feedback.
func (c *IPC1) AddDelay(cycles uint64) {
	c.cycle += cycles
	c.cnt.Cycles.Set(c.cycle)
}

// SetCycle fast-forwards the core clock.
func (c *IPC1) SetCycle(cycle uint64) {
	if cycle > c.cycle {
		c.cycle = cycle
		c.cnt.Cycles.Set(c.cycle)
	}
}

// ContextSwitch invalidates the fetch micro-state when a different software
// thread is placed on the core, so the incoming thread refetches its first
// I-cache line instead of inheriting the outgoing thread's.
func (c *IPC1) ContextSwitch() { c.lastFetch = ^uint64(0) }

// Reset restores the just-constructed state for warm reuse.
func (c *IPC1) Reset() {
	c.memUnit.reset()
	c.cycle = 0
	c.lastFetch = 0
	c.pred.Reset()
}

// SimulateBlock simulates one dynamic block on the simple core.
func (c *IPC1) SimulateBlock(b *trace.DynBlock) {
	d := b.Decoded
	if d == nil {
		return
	}

	// Instruction fetch: one L1I access per new I-cache line touched.
	fetchLine := cache.LineAddr(d.Addr)
	if fetchLine != c.lastFetch {
		c.lastFetch = fetchLine
		c.cnt.Fetches.Inc()
		avail := c.access(c.ports.L1I, fetchLine, false, c.cycle)
		if avail > c.cycle {
			// The simple model charges I-cache miss latency fully.
			lat := avail - c.cycle
			if lat > uint64(lineHitLatency(c.ports.L1I)) {
				c.cnt.FetchStall.Add(lat)
				c.cycle = avail
			}
		}
	}

	// One cycle per instruction, using the block's precomputed aggregates.
	c.cycle += uint64(d.Instrs)
	c.cnt.Instrs.Add(uint64(d.Instrs))
	c.cnt.Uops.Add(uint64(len(d.Uops)))
	c.cnt.Loads.Add(uint64(d.Loads))
	c.cnt.Stores.Add(uint64(d.Stores))

	// Memory operations: loads stall the core for their full latency, stores
	// are sent to the hierarchy but do not stall. The block's timing template
	// lists exactly the memory µops, so the simple core's per-block work is
	// O(memory accesses) rather than O(µops).
	for i := range d.MemOps {
		m := &d.MemOps[i]
		addr := addrFor(b, m.Slot)
		if m.Store {
			c.access(c.ports.L1D, cache.LineAddr(addr), true, c.cycle)
		} else {
			avail := c.access(c.ports.L1D, cache.LineAddr(addr), false, c.cycle)
			if avail > c.cycle {
				c.cycle = avail
			}
		}
	}

	// Branch prediction: mispredictions add a fixed penalty even on the
	// simple core (this keeps branch MPKI statistics meaningful).
	if d.CondBranch {
		c.cnt.BrPred.Inc()
		if !c.pred.PredictAndUpdate(b.BranchPC, b.Taken) {
			c.cnt.BrMiss.Inc()
			c.cycle += mispredictPenalty
		}
	}
	c.cnt.Cycles.Set(c.cycle)
}

// lineHitLatency returns the hit latency of a cache.Level if it is a *cache.Cache.
func lineHitLatency(l cache.Level) uint32 {
	if cc, ok := l.(*cache.Cache); ok {
		return cc.Latency()
	}
	return 0
}

// addrFor returns the dynamic address for a memory slot, tolerating blocks
// whose address list is shorter than expected (defensive: the generator
// guarantees one address per slot).
func addrFor(b *trace.DynBlock, slot int8) uint64 {
	if slot < 0 || int(slot) >= len(b.Addrs) {
		return 0
	}
	return b.Addrs[slot]
}

// mispredictPenalty is the fixed branch-misprediction recovery penalty in
// cycles (Westmere recovers in ~17 cycles).
const mispredictPenalty = 17
