// Package event implements the weave-phase event-driven simulation framework
// described in Section 3.2.2 of the paper.
//
// The bound phase records, per core, a trace of the microarchitectural events
// each memory access generates beyond the private cache levels (L3 bank
// accesses, memory controller reads, writebacks, router hops). The weave
// phase replays those events in full order to model contention. Every event
// carries a lower bound on its execution cycle (established by the zero-load
// bound phase), a fixed delay after its parents, and its children.
//
// # Layout
//
// An interval's events live in one Graph: a flat slice of pointer-free
// Events named by their int32 index, children linked through an index edge
// list, and a binary heap of (cycle, index) items. Nothing in the graph holds
// a Go pointer, so the garbage collector never scans it, and rewinding it for
// the next interval is three slice truncations. An event does not carry its
// contention model: it carries a Kind, an int32 context index and an Arg, and
// Run hands every event to one Executor that switches on the Kind.
//
// # Execution order
//
// Run is one binary min-heap keyed by (dispatch cycle, index). A root enters
// the heap at its MinCycle. A child enters only when its last parent
// finishes, keyed at its final ready cycle: max(MinCycle, parent finish +
// Delay) over all parents. Each pop therefore executes an event at its final
// dispatch cycle.
//
// The index is the event's sequence number: indices are unique, and every
// edge runs from a lower index to a higher one (AddChild enforces it).
// Together with finish >= dispatch, that means no event can become ready
// below the key just popped: an unfinished parent is itself keyed at or above
// it, and a same-cycle child of it carries a higher index. Run thus executes
// every event in the (final dispatch cycle, index) order, a pure function of
// the order the bound phase's traces were added in: independent of heap
// arrival order, host threads and GOMAXPROCS. Contention models are per
// component, so simulated results are a pure function of that order too.
//
// The graph is persistent: one graph serves every interval of a simulation,
// and its slices keep their capacity, so the steady-state interval loop
// performs no heap allocation.
package event

// Kind selects the contention model an Executor applies to an event. Kind 0
// is reserved for events that finish at their dispatch cycle (the core-side
// markers of an access chain); Run does not call the Executor for them.
type Kind uint8

// Event is one weave-phase event: an access hitting a component, a memory
// read, a writeback, or a core-side marker.
type Event struct {
	// MinCycle is the lower bound on the event's execution cycle, established
	// by the zero-load bound phase.
	MinCycle uint64
	// Delay is the fixed parent-to-child delay: the event cannot be
	// dispatched before parentFinish + Delay (for each parent).
	Delay uint64
	// Arg is an executor-defined scalar (e.g. the access's line address).
	Arg uint64
	// Ctx is an executor-defined context index (e.g. the component ID).
	Ctx int32
	// Kind selects the executor's model; 0 finishes instantly.
	Kind Kind
	// Flag is an executor-defined boolean (e.g. miss-vs-hit or write-vs-read).
	Flag bool

	// Mutable simulation state. pending counts unfinished parents and is -1
	// once the event has executed; child is the 1-based index of the head of
	// the event's edge list (0: no children).
	pending int32
	child   int32
	ready   uint64 // max over finished parents of (finish + Delay)
	finish  uint64
}

// Executor applies the contention models to events: it receives the event's
// index, the event, and the cycle at which the event is dispatched, and
// returns the cycle at which the event finishes (>= the dispatch cycle).
type Executor interface {
	Exec(i int32, ev *Event, dispatch uint64) (finish uint64)
}

// edge is one parent-to-child link; next is the 1-based index of the
// parent's next edge (0 ends the list).
type edge struct {
	child, next int32
}

// item is a heap entry: an event index keyed at its final dispatch cycle.
type item struct {
	cycle uint64
	idx   int32
}

func itemLess(a, b *item) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.idx < b.idx
}

// Graph holds one interval's events, their edges and the heap that runs
// them.
type Graph struct {
	events []Event
	edges  []edge
	pq     []item
}

// Add appends an event with the given fields and returns its index. Only the
// exported fields of ev are kept.
func (g *Graph) Add(ev Event) int32 {
	ev.pending, ev.child, ev.ready, ev.finish = 0, 0, 0, 0
	g.events = append(g.events, ev)
	return int32(len(g.events) - 1)
}

// AddChild declares that child depends on parent (child cannot dispatch
// before parent finishes plus child's Delay). The parent must have been
// added before the child (parent < child), which chains recorded in program
// order satisfy by construction; Run's ordering argument rests on it, so a
// violation panics.
func (g *Graph) AddChild(parent, child int32) {
	if parent >= child {
		panic("event: AddChild out of creation order (a parent's index must be below its child's)")
	}
	p := &g.events[parent]
	g.edges = append(g.edges, edge{child: child, next: p.child})
	p.child = int32(len(g.edges))
	g.events[child].pending++
}

// Len returns the number of events in the graph.
func (g *Graph) Len() int { return len(g.events) }

// At returns the event with index i. The pointer is valid until the next Add.
func (g *Graph) At(i int32) *Event { return &g.events[i] }

// NumChildren returns the number of children declared on event i.
func (g *Graph) NumChildren(i int32) int {
	n := 0
	for e := g.events[i].child; e != 0; e = g.edges[e-1].next {
		n++
	}
	return n
}

// Finished reports whether event i has executed.
func (g *Graph) Finished(i int32) bool { return g.events[i].pending < 0 }

// FinishCycle returns the cycle at which event i finished (valid only after
// Finished(i)).
func (g *Graph) FinishCycle(i int32) uint64 { return g.events[i].finish }

// Reset empties the graph for the next interval, keeping every capacity.
func (g *Graph) Reset() {
	g.events = g.events[:0]
	g.edges = g.edges[:0]
	g.pq = g.pq[:0]
}

// Run executes every event of the graph in (final dispatch cycle, index)
// order, calling x for each event of nonzero Kind, and returns the largest
// finish cycle (the interval's actual end). A panicking executor propagates
// to the caller and leaves the graph half run; Reset rewinds it.
func (g *Graph) Run(x Executor) uint64 {
	for i := range g.events {
		if ev := &g.events[i]; ev.pending == 0 {
			g.push(item{cycle: ev.MinCycle, idx: int32(i)})
		}
	}
	var maxFinish uint64
	for len(g.pq) > 0 {
		it := g.pq[0]
		ev := &g.events[it.idx]
		finish := it.cycle
		if ev.Kind != 0 {
			if f := x.Exec(it.idx, ev, it.cycle); f > finish {
				finish = f
			}
		}
		ev.finish = finish
		ev.pending = -1
		maxFinish = max(maxFinish, finish)
		// The first child to become ready takes the popped event's slot at
		// the top (its key is above the popped one), saving a pop and a push
		// along a chain.
		top := true
		for e := ev.child; e != 0; {
			ed := g.edges[e-1]
			ch := &g.events[ed.child]
			ch.ready = max(ch.ready, finish+ch.Delay)
			if ch.pending--; ch.pending == 0 {
				next := item{cycle: max(ch.ready, ch.MinCycle), idx: ed.child}
				if top {
					g.pq[0] = next
					g.down()
					top = false
				} else {
					g.push(next)
				}
			}
			e = ed.next
		}
		if top {
			n := len(g.pq) - 1
			g.pq[0] = g.pq[n]
			g.pq = g.pq[:n]
			g.down()
		}
	}
	return maxFinish
}

func (g *Graph) push(it item) {
	g.pq = append(g.pq, it)
	s := g.pq
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(&s[i], &s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// down restores the heap order after the top item was replaced.
func (g *Graph) down() {
	s := g.pq
	n := len(s)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && itemLess(&s[r], &s[l]) {
			m = r
		}
		if !itemLess(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}
