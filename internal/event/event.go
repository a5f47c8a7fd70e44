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
// # Execution order
//
// The Engine is one binary min-heap keyed by (dispatch cycle, sequence). A
// root enters the heap at its MinCycle. A child enters only when its last
// parent finishes, keyed at its final ready cycle: max(MinCycle, parent
// finish + Delay) over all parents. Each pop therefore executes an event at
// its final dispatch cycle.
//
// Sequence numbers are unique (per-core slabs take disjoint bases) and every
// edge runs from a lower sequence to a higher one (AddChild enforces it).
// Together with finish >= dispatch, that means no event can become ready
// below the key just popped: an unfinished parent is itself keyed at or above
// it, and a same-cycle child of it carries a higher sequence. The engine thus
// executes every event in the (final dispatch cycle, sequence) order, a pure
// function of the bound phase: independent of heap arrival order, host
// threads and GOMAXPROCS. Contention models are per component, so simulated
// results are a pure function of that order too.
//
// The engine is persistent: one engine serves every interval of a
// simulation, and its heap keeps its capacity, so the steady-state interval
// loop performs no heap allocation.
package event

import "zsim/internal/arena"

// Executor is the contention-model callback attached to an event: it receives
// the event itself (whose Ctx/Arg/Flag fields carry the model context) and
// the cycle at which the event is dispatched, and returns the cycle at which
// the event finishes (>= the dispatch cycle). Executors are typically shared
// package-level functions rather than per-event closures, so that building an
// interval's event graph allocates nothing.
type Executor func(ev *Event, dispatchCycle uint64) (finishCycle uint64)

// Event is one weave-phase event: an access hitting a component, a memory
// read, a writeback, or a core-side marker. Events are created during the
// bound phase (through a Slab) with their dependencies fully specified.
type Event struct {
	// MinCycle is the lower bound on the event's execution cycle, established
	// by the zero-load bound phase.
	MinCycle uint64
	// Exec computes the event's finish cycle given its dispatch cycle. A nil
	// Exec means the event finishes instantly at its dispatch cycle.
	Exec Executor
	// Ctx carries the executor's context (e.g. a *BankModel or a memory
	// contention model). Storing a pointer in an interface does not allocate,
	// so a shared Executor plus Ctx/Arg/Flag replaces a per-event closure.
	Ctx any
	// Arg is an executor-defined scalar (e.g. the access's line address).
	Arg uint64
	// Flag is an executor-defined boolean (e.g. miss-vs-hit or write-vs-read).
	Flag bool

	// Delay is the fixed parent-to-child delay: the event cannot be
	// dispatched before parentFinish + Delay (for each parent).
	Delay uint64

	children []*Event

	// Mutable simulation state.
	pendingParents int32
	readyCycle     uint64 // max over finished parents of (finish + Delay)
	finishCycle    uint64
	done           bool

	// seq is the event's deterministic creation sequence number (assigned by
	// its Slab from the slab's base + allocation index). It breaks
	// dispatch-cycle ties in the heap.
	seq uint64
}

// Seq returns the event's deterministic creation sequence number.
func (e *Event) Seq() uint64 { return e.seq }

// AddChild declares that child depends on e (child cannot dispatch before e
// finishes plus child.Delay). The parent must have been allocated before the
// child (e.Seq() < child.Seq()), which per-core slabs recording chains in
// program order satisfy by construction; the engine's ordering argument
// rests on it, so a violation panics.
func (e *Event) AddChild(child *Event) {
	if e.seq >= child.seq {
		panic("event: AddChild out of creation order (a parent's Seq must be below its child's)")
	}
	e.children = append(e.children, child)
	child.pendingParents++
}

// Parentless reports whether the event has no parents (it is a chain root
// that must be enqueued explicitly). Only meaningful before the engine runs.
func (e *Event) Parentless() bool { return e.pendingParents == 0 }

// Finished reports whether the event has executed.
func (e *Event) Finished() bool { return e.done }

// FinishCycle returns the cycle at which the event finished (valid only after
// Finished() is true).
func (e *Event) FinishCycle() uint64 { return e.finishCycle }

// NumChildren returns the number of declared children (used by tests).
func (e *Event) NumChildren() int { return len(e.children) }

// Slab is a per-core slab allocator for events. The bound phase allocates
// events from its core's slab; after the interval's weave phase completes the
// slab is recycled wholesale, avoiding generic heap allocation on the
// simulator's hot path (Section 3.2.1, "Tracing"). Events are allocated in
// fixed-size chunks so previously returned pointers remain valid as the slab
// grows. Chunks are allocated lazily, on the first Alloc that needs them, so
// building a 1,024-core simulator does not pay for event storage that cores
// with no shared-level accesses never use; when the slab is created with a
// construction arena (NewSlabIn), chunks are carved from it.
type Slab struct {
	chunks    [][]Event
	chunkSize int
	cur       int // index of the chunk being filled
	next      int // next free slot within the current chunk
	inUse     int
	arena     *arena.Arena
	seqBase   uint64
}

// SetSeqBase sets the base of the sequence numbers this slab assigns.
// Per-core slabs get disjoint bases (coreID << 32) so every event in an
// interval has a globally unique, bound-phase-deterministic sequence number.
func (s *Slab) SetSeqBase(base uint64) { s.seqBase = base }

// NewSlab creates a slab whose chunks hold n events each.
func NewSlab(n int) *Slab { return NewSlabIn(nil, n) }

// NewSlabIn creates a slab whose (lazily allocated) chunks of n events each
// are carved from the given construction arena (nil falls back to the heap).
func NewSlabIn(a *arena.Arena, n int) *Slab {
	if n < 16 {
		n = 16
	}
	s := arena.One[Slab](a)
	s.chunkSize = n
	s.arena = a
	return s
}

// Alloc returns a cleared event from the slab, growing it by whole chunks as
// needed. The recycled event's children slice keeps its capacity, so graphs
// rebuilt interval after interval stop allocating once the slab has warmed
// up.
func (s *Slab) Alloc() *Event {
	if len(s.chunks) == 0 {
		s.chunks = append(s.chunks, arena.Take[Event](s.arena, s.chunkSize))
	} else if s.next == s.chunkSize {
		s.cur++
		s.next = 0
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, arena.Take[Event](s.arena, s.chunkSize))
		}
	}
	e := &s.chunks[s.cur][s.next]
	s.next++
	*e = Event{children: e.children[:0], seq: s.seqBase + uint64(s.inUse)}
	s.inUse++
	return e
}

// Reset recycles every event in the slab (whole-interval recycling).
func (s *Slab) Reset() {
	s.cur = 0
	s.next = 0
	s.inUse = 0
}

// InUse returns the number of live events.
func (s *Slab) InUse() int { return s.inUse }

// At returns the i-th live event (0 <= i < InUse()), in allocation order.
func (s *Slab) At(i int) *Event {
	return &s.chunks[i/s.chunkSize][i%s.chunkSize]
}

// queueItem is a heap entry: an event keyed at its final dispatch cycle. The
// seq field is copied out of the event so comparisons stay
// pointer-chase-free.
type queueItem struct {
	ev    *Event
	cycle uint64
	seq   uint64
}

// itemLess is the (cycle, sequence) heap order.
func itemLess(a, b *queueItem) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// eventPQ is a typed binary min-heap over queueItems. It replaces
// container/heap so pushes and pops move concrete queueItems instead of
// boxing them through interface{}.
type eventPQ []queueItem

func (q *eventPQ) push(it queueItem) {
	*q = append(*q, it)
	s := *q
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

func (q *eventPQ) pop() (queueItem, bool) {
	s := *q
	n := len(s)
	if n == 0 {
		return queueItem{}, false
	}
	top := s[0]
	n--
	s[0] = s[n]
	*q = s[:n]
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
	return top, true
}

// Engine executes the weave phase: it accepts the root events of an
// interval and runs them and their descendants to completion in (final
// dispatch cycle, sequence) order. Engines are persistent: one engine serves
// every interval of a simulation, reusing its heap.
type Engine struct {
	pq eventPQ
}

// NewEngine creates an engine.
func NewEngine() *Engine { return &Engine{} }

// Enqueue submits a root event (one with no parents). Events with parents
// enter the heap when their last parent finishes.
func (e *Engine) Enqueue(ev *Event) {
	e.pq.push(queueItem{ev: ev, cycle: ev.MinCycle, seq: ev.seq})
}

// Run executes all enqueued events and their descendants on the caller. It
// returns the largest finish cycle observed (the interval's actual end). A
// panicking executor propagates to the caller and leaves the heap holding
// unexecuted events; the engine must not be reused after that.
func (e *Engine) Run() uint64 {
	var maxFinish uint64
	for {
		it, ok := e.pq.pop()
		if !ok {
			return maxFinish
		}
		ev := it.ev
		finish := it.cycle
		if ev.Exec != nil {
			if f := ev.Exec(ev, it.cycle); f > finish {
				finish = f
			}
		}
		ev.finishCycle = finish
		ev.done = true
		if finish > maxFinish {
			maxFinish = finish
		}
		for _, ch := range ev.children {
			if r := finish + ch.Delay; r > ch.readyCycle {
				ch.readyCycle = r
			}
			if ch.pendingParents--; ch.pendingParents == 0 {
				ready := ch.readyCycle
				if ready < ch.MinCycle {
					ready = ch.MinCycle
				}
				e.pq.push(queueItem{ev: ch, cycle: ready, seq: ch.seq})
			}
		}
	}
}
