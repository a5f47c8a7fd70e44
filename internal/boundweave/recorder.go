package boundweave

import (
	"zsim/internal/arena"
	"zsim/internal/cache"
	"zsim/internal/event"
	"zsim/internal/memctrl"
	"zsim/internal/noc"
)

// accessRecord is one bound-phase memory access that left the private cache
// levels: its zero-load issue cycle, whether it was a store, and the
// [start, end) range its hops occupy in the recorder's hop log.
type accessRecord struct {
	issueCycle uint64
	start, end int32
	write      bool
}

// Recorder is the per-core bound-phase trace: it receives every recorded
// access from its core (via the core.AccessRecorder interface) and keeps the
// ones that touch shared components (L3 banks, memory controllers), which are
// the accesses the weave phase retimes. Each core has its own recorder and is
// driven by one host thread, so no locking is needed.
//
// The hops of every kept access are copied into one flat per-core log, so
// the core reuses a single hop buffer forever and Reset (called after each
// weave phase) is two truncations. After the first few intervals the record
// path therefore performs no heap allocation.
type Recorder struct {
	coreID int
	shared []bool // dense component-ID -> weave-retimed table
	recs   []accessRecord
	hops   []cache.Hop
	// Dropped counts accesses that stayed within the private levels and were
	// therefore not recorded (contention there is dominated by the core
	// itself and is modeled in the bound phase).
	Dropped uint64
}

// NewRecorder creates a recorder for one core. shared is the set of component
// IDs whose events are weave-simulated.
func NewRecorder(coreID int, shared map[int]bool) *Recorder {
	return NewRecorderIn(nil, coreID, shared)
}

// NewRecorderIn is NewRecorder with the recorder and its dense shared-
// component table carved from the given construction arena (nil falls back
// to the heap).
func NewRecorderIn(a *arena.Arena, coreID int, shared map[int]bool) *Recorder {
	return newRecorderDense(a, coreID, denseShared(a, shared))
}

// denseShared densifies a shared-component set into a component-ID-indexed
// table. It is the single densification rule for recorders; the simulator
// builds one table and shares it across every core's recorder.
func denseShared(a *arena.Arena, shared map[int]bool) []bool {
	maxComp := -1
	for comp := range shared {
		if comp > maxComp {
			maxComp = comp
		}
	}
	arr := arena.Take[bool](a, maxComp+1)
	for comp, v := range shared {
		if comp >= 0 {
			arr[comp] = v
		}
	}
	return arr
}

// newRecorderDense creates a recorder over an already-densified shared table.
// The simulator builds the table once and hands the same slice to every
// core's recorder (it is read-only), so a 1,024-core chip keeps one copy.
func newRecorderDense(a *arena.Arena, coreID int, shared []bool) *Recorder {
	r := arena.One[Recorder](a)
	r.coreID = coreID
	r.shared = shared
	return r
}

// RecordAccess implements core.AccessRecorder. It copies traces that touch a
// shared component into the hop log and hands the caller's buffer back
// truncated.
func (r *Recorder) RecordAccess(coreID int, issueCycle uint64, write bool, hops []cache.Hop) []cache.Hop {
	touchesShared := false
	for i := range hops {
		if c := hops[i].Comp; c >= 0 && c < len(r.shared) && r.shared[c] {
			touchesShared = true
			break
		}
	}
	if !touchesShared {
		r.Dropped++
		return hops[:0]
	}
	start := int32(len(r.hops))
	r.hops = append(r.hops, hops...)
	r.recs = append(r.recs, accessRecord{issueCycle: issueCycle, start: start, end: int32(len(r.hops)), write: write})
	return hops[:0]
}

// Len returns the number of recorded accesses in the current interval.
func (r *Recorder) Len() int { return len(r.recs) }

// Reset clears the interval's records and hop log (called after the weave
// phase), keeping their capacity for the next interval.
func (r *Recorder) Reset() {
	r.recs = r.recs[:0]
	r.hops = r.hops[:0]
}

// BankModel is the weave-phase contention model for a pipelined L3 bank: a
// single address port accepts one access per cycle, and a limited number of
// MSHRs bounds outstanding misses (each miss holds an MSHR for roughly the
// memory round trip). Only the weave engine drives it, so it needs no
// locking.
type BankModel struct {
	// Latency is the bank's zero-load access latency.
	Latency uint32
	// MSHRs bounds outstanding misses (0 = unlimited).
	MSHRs int
	// MissHoldCycles approximates how long a miss occupies an MSHR.
	MissHoldCycles uint64

	portFree uint64
	mshrFree []uint64 // completion cycles of in-flight misses

	// Stats.
	Accesses      uint64
	PortConflicts uint64
	MSHRStalls    uint64
}

// NewBankModel creates a bank contention model.
func NewBankModel(latency uint32, mshrs int, missHold uint64) *BankModel {
	if missHold == 0 {
		missHold = 120
	}
	return &BankModel{Latency: latency, MSHRs: mshrs, MissHoldCycles: missHold}
}

// Schedule returns the finish cycle of an access dispatched to the bank at
// the given cycle. isMiss marks accesses that continue to memory and hold an
// MSHR.
func (b *BankModel) Schedule(dispatch uint64, isMiss bool) uint64 {
	b.Accesses++
	start := dispatch
	if b.portFree > start {
		b.PortConflicts++
		start = b.portFree
	}
	// MSHR occupancy for misses.
	if isMiss && b.MSHRs > 0 {
		// Retire completed MSHRs.
		live := b.mshrFree[:0]
		for _, f := range b.mshrFree {
			if f > start {
				live = append(live, f)
			}
		}
		b.mshrFree = live
		if len(b.mshrFree) >= b.MSHRs {
			// All MSHRs busy: wait for the earliest to free.
			earliest := b.mshrFree[0]
			for _, f := range b.mshrFree {
				if f < earliest {
					earliest = f
				}
			}
			if earliest > start {
				b.MSHRStalls++
				start = earliest
			}
		}
		b.mshrFree = append(b.mshrFree, start+b.MissHoldCycles)
	}
	b.portFree = start + 1 // pipelined: one new access per cycle
	return start + uint64(b.Latency)
}

// Reset clears the model between runs.
func (b *BankModel) Reset() {
	b.portFree = 0
	b.mshrFree = b.mshrFree[:0]
}

// Weave event kinds: the contention model weaveModels.Exec applies. Chain
// roots and responses keep kind 0 and finish at their dispatch cycle.
const (
	kindBank   event.Kind = iota + 1 // Ctx: bank component; Flag: miss
	kindMem                          // Ctx: memory component; Arg: line; Flag: writeback
	kindRouter                       // Ctx: router; Arg: output port
)

// weaveModels bundles the per-component contention models used by the weave
// phase of one Simulator, as dense component-ID-indexed tables. fabric is
// non-nil only when NoC contention is enabled. It is the weave graph's
// Executor.
type weaveModels struct {
	banks  []*BankModel
	mems   []memctrl.ContentionModel
	fabric *noc.Fabric
}

func (m *weaveModels) isBank(comp int) bool {
	return comp >= 0 && comp < len(m.banks) && m.banks[comp] != nil
}

func (m *weaveModels) isMem(comp int) bool {
	return comp >= 0 && comp < len(m.mems) && m.mems[comp] != nil
}

// Exec implements event.Executor: it schedules the event on the model its
// kind and context index name.
func (m *weaveModels) Exec(_ int32, ev *event.Event, dispatch uint64) uint64 {
	switch ev.Kind {
	case kindBank:
		return m.banks[ev.Ctx].Schedule(dispatch, ev.Flag)
	case kindMem:
		return dispatch + m.mems[ev.Ctx].RequestLatency(ev.Arg, dispatch, ev.Flag)
	case kindRouter:
		return m.fabric.Router(int(ev.Ctx)).Schedule(int(ev.Arg), dispatch)
	}
	return dispatch
}

// link adds ev to the graph as the child of prev and returns its index.
func link(g *event.Graph, prev int32, ev event.Event) int32 {
	i := g.Add(ev)
	g.AddChild(prev, i)
	return i
}

// buildChain converts one recorded access, issued at issueCycle with the
// given hops, into a weave event chain on g and returns the index of the chain's response event
// (at the core), whose finish-vs-bound difference is the access's contention
// delay.
//
// prevResp, when not negative, is the response event of the same core's most
// recent recorded *load*: it becomes a parent of this chain's root,
// serializing the core's later shared-level accesses behind the load the
// core stalled on. A load delayed by contention therefore delays the core's
// subsequent misses, cascading the contention delay through the access
// stream exactly as the stalled bound-phase core would have experienced it.
// Stores do not gate later accesses (the core does not stall on them).
func buildChain(g *event.Graph, issueCycle uint64, hops []cache.Hop, models *weaveModels, prevResp int32) int32 {
	// Root: the core issues the request at its bound-phase cycle.
	prev := g.Add(event.Event{MinCycle: issueCycle})
	if prevResp >= 0 {
		g.AddChild(prevResp, prev)
	}

	lastZeroLoadDone := issueCycle
	for i := range hops {
		h := &hops[i]
		switch {
		case h.Kind == cache.HopNet:
			// A routed NoC traversal: one event per router along the
			// topology's deterministic route, each occupying its output port.
			// The first router dispatches after the zero-load injection
			// latency; each event's lower bound is its zero-load arrival, so
			// an uncontended route finishes exactly at the bound-phase cycle.
			if fab := models.fabric; fab != nil {
				cur, dst := int(h.Src), int(h.Dst)
				minCycle := h.Cycle + fab.Injection()
				perHop := fab.PerHop()
				for cur != dst {
					next, port := fab.NextHop(cur, dst)
					prev = link(g, prev, event.Event{MinCycle: minCycle, Kind: kindRouter, Ctx: int32(cur), Arg: uint64(port)})
					minCycle += perHop
					cur = next
				}
			}
		case h.Kind == cache.HopNetMem:
			// The LLC-to-controller link: a single traversal of the owning
			// bank's memory-egress port (the one hop the bound phase charges).
			if fab := models.fabric; fab != nil {
				prev = link(g, prev, event.Event{MinCycle: h.Cycle, Kind: kindRouter, Ctx: int32(h.Src), Arg: uint64(fab.MemPort())})
			}
		case models.isBank(h.Comp):
			prev = link(g, prev, event.Event{MinCycle: h.Cycle, Kind: kindBank, Ctx: int32(h.Comp), Flag: h.Kind == cache.HopMiss})
		case models.isMem(h.Comp):
			prev = link(g, prev, event.Event{MinCycle: h.Cycle, Kind: kindMem, Ctx: int32(h.Comp), Arg: h.Line, Flag: h.Kind == cache.HopWB})
		}
		// Private-level hops contribute only their zero-load time.
		lastZeroLoadDone = h.Cycle + uint64(h.Latency)
	}

	// Response event back at the core: its lower bound is the access's
	// zero-load completion; its actual finish reflects contention upstream.
	return link(g, prev, event.Event{MinCycle: lastZeroLoadDone})
}
