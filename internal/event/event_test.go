package event

import (
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSlabAllocAndReset(t *testing.T) {
	s := NewSlab(4)
	var evs []*Event
	for i := 0; i < 10; i++ { // forces growth past the first chunk
		e := s.Alloc()
		e.Arg = uint64(i)
		evs = append(evs, e)
	}
	if s.InUse() != 10 {
		t.Fatalf("in-use count: %d", s.InUse())
	}
	// Growth must not invalidate earlier pointers.
	for i, e := range evs {
		if e.Arg != uint64(i) || e.Seq() != uint64(i) {
			t.Fatalf("event %d corrupted after slab growth: arg=%d seq=%d", i, e.Arg, e.Seq())
		}
	}
	s.Reset()
	if s.InUse() != 0 {
		t.Fatalf("reset should clear in-use count")
	}
	e := s.Alloc()
	if e.Arg != 0 || e.MinCycle != 0 || e.Exec != nil || e.Seq() != 0 {
		t.Fatalf("recycled event should be zeroed")
	}
	// Minimum chunk size.
	tiny := NewSlab(1)
	if tiny.chunkSize != 16 {
		t.Fatalf("chunk size should clamp to 16, got %d", tiny.chunkSize)
	}
}

func TestSlabRecyclesChildCapacity(t *testing.T) {
	s := NewSlab(16)
	parent := s.Alloc()
	child := s.Alloc()
	parent.AddChild(child)
	if parent.NumChildren() != 1 {
		t.Fatalf("child not registered")
	}
	s.Reset()
	p2 := s.Alloc()
	if p2 != parent {
		t.Fatalf("reset should recycle the same slots in order")
	}
	if p2.NumChildren() != 0 {
		t.Fatalf("recycled event must not keep stale children")
	}
	// Appending a child to the recycled event must not allocate: the children
	// slice keeps its capacity across Reset.
	c2 := s.Alloc()
	allocs := testing.AllocsPerRun(1, func() {
		p2.children = p2.children[:0]
		p2.AddChild(c2)
	})
	if allocs != 0 {
		t.Fatalf("AddChild on a recycled event should not allocate, got %v allocs", allocs)
	}
}

func TestEventPQOrdering(t *testing.T) {
	var q eventPQ
	cycles := []uint64{9, 3, 7, 1, 8, 2, 6, 0, 5, 4}
	evs := make([]Event, len(cycles))
	for i, c := range cycles {
		q.push(queueItem{ev: &evs[i], cycle: c})
	}
	var got []uint64
	for {
		it, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, it.cycle)
	}
	if len(got) != len(cycles) {
		t.Fatalf("expected %d pops, got %d", len(cycles), len(got))
	}
	for i, c := range got {
		if uint64(i) != c {
			t.Fatalf("pops out of order: %v", got)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatalf("empty queue should report !ok")
	}
}

func TestSingleEventExecution(t *testing.T) {
	eng := NewEngine()
	s := NewSlab(16)
	ev := s.Alloc()
	ev.MinCycle = 100
	var got uint64
	ev.Exec = func(_ *Event, c uint64) uint64 { got = c; return c + 25 }
	eng.Enqueue(ev)
	end := eng.Run()
	if !ev.Finished() {
		t.Fatalf("event should have executed")
	}
	if got != 100 {
		t.Fatalf("event should dispatch at its lower bound, got %d", got)
	}
	if ev.FinishCycle() != 125 || end != 125 {
		t.Fatalf("finish cycle wrong: %d / %d", ev.FinishCycle(), end)
	}
}

func TestParentChildDelayPropagation(t *testing.T) {
	eng := NewEngine()
	s := NewSlab(16)
	parent := s.Alloc()
	parent.MinCycle = 10
	parent.Exec = func(_ *Event, c uint64) uint64 { return c + 40 } // finishes at 50

	child := s.Alloc()
	child.MinCycle = 20 // lower bound is far below the real dispatch
	child.Delay = 5
	var childDispatch uint64
	child.Exec = func(_ *Event, c uint64) uint64 { childDispatch = c; return c }
	parent.AddChild(child)
	if parent.NumChildren() != 1 {
		t.Fatalf("child not registered")
	}

	eng.Enqueue(parent)
	eng.Run()
	if !child.Finished() {
		t.Fatalf("child should run after parent")
	}
	if childDispatch != 55 {
		t.Fatalf("child should dispatch at parentFinish+delay = 55, got %d", childDispatch)
	}
}

func TestMultipleParentsWaitForAll(t *testing.T) {
	eng := NewEngine()
	s := NewSlab(16)
	p1 := s.Alloc()
	p1.MinCycle = 0
	p1.Exec = func(_ *Event, c uint64) uint64 { return c + 10 }
	p2 := s.Alloc()
	p2.MinCycle = 0
	p2.Exec = func(_ *Event, c uint64) uint64 { return c + 90 }

	child := s.Alloc()
	var dispatch uint64
	child.Exec = func(_ *Event, c uint64) uint64 { dispatch = c; return c }
	p1.AddChild(child)
	p2.AddChild(child)

	eng.Enqueue(p1)
	eng.Enqueue(p2)
	eng.Run()
	if !child.Finished() {
		t.Fatalf("child should execute after both parents")
	}
	if dispatch != 90 {
		t.Fatalf("child should wait for the slower parent (90), got %d", dispatch)
	}
}

func TestCrossDomainChain(t *testing.T) {
	// A chain crossing components: core -> L3 bank -> memory -> core, like
	// Figure 4's request-response traffic.
	eng := NewEngine()
	s := NewSlab(16)

	mk := func(min uint64, lat uint64) *Event {
		e := s.Alloc()
		e.MinCycle = min
		e.Arg = lat
		e.Exec = func(ev *Event, c uint64) uint64 { return c + ev.Arg }
		return e
	}
	core := mk(30, 0)
	l3 := mk(80, 20) // contention model adds 20 cycles
	mem := mk(110, 66)
	resp := mk(250, 0)
	core.AddChild(l3)
	l3.AddChild(mem)
	mem.AddChild(resp)

	eng.Enqueue(core)
	end := eng.Run()
	for i, ev := range []*Event{core, l3, mem, resp} {
		if !ev.Finished() {
			t.Fatalf("event %d did not finish", i)
		}
	}
	// Finish cycles must be monotone along the chain.
	if !(core.FinishCycle() <= l3.FinishCycle() && l3.FinishCycle() <= mem.FinishCycle() && mem.FinishCycle() <= resp.FinishCycle()) {
		t.Fatalf("chain finish cycles not monotone: %d %d %d %d",
			core.FinishCycle(), l3.FinishCycle(), mem.FinishCycle(), resp.FinishCycle())
	}
	// The response cannot finish before its lower bound.
	if resp.FinishCycle() < 250 {
		t.Fatalf("lower bound violated: %d", resp.FinishCycle())
	}
	if end < resp.FinishCycle() {
		t.Fatalf("engine end cycle should cover the last event")
	}
}

func TestLowerBoundRespected(t *testing.T) {
	// A child whose MinCycle exceeds parentFinish+Delay dispatches at its
	// MinCycle (bound phase already guarantees it cannot be earlier).
	eng := NewEngine()
	s := NewSlab(4)
	p := s.Alloc()
	p.Exec = func(_ *Event, c uint64) uint64 { return c + 1 }
	ch := s.Alloc()
	ch.MinCycle = 500
	var dispatch uint64
	ch.Exec = func(_ *Event, c uint64) uint64 { dispatch = c; return c }
	p.AddChild(ch)
	eng.Enqueue(p)
	eng.Run()
	if dispatch != 500 {
		t.Fatalf("child should dispatch at its lower bound 500, got %d", dispatch)
	}
}

// TestDeterministicTieBreak checks the (cycle, sequence) order: same-cycle
// events execute in slab allocation order, regardless of the order they were
// enqueued in.
func TestDeterministicTieBreak(t *testing.T) {
	eng := NewEngine()
	s := NewSlab(16)
	s.SetSeqBase(100)
	var order []uint64
	record := func(e *Event, c uint64) uint64 {
		order = append(order, e.Seq())
		return c
	}
	// Allocation order: seq 100..103. Enqueue deliberately scrambled, with
	// equal MinCycles.
	evs := make([]*Event, 4)
	for i := range evs {
		ev := s.Alloc()
		ev.MinCycle = 50
		ev.Exec = record
		evs[i] = ev
	}
	for _, i := range []int{2, 0, 3, 1} {
		eng.Enqueue(evs[i])
	}
	eng.Run()
	want := []uint64{100, 101, 102, 103} // pure allocation order at the tied cycle
	if len(order) != len(want) {
		t.Fatalf("executed %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tie-break order wrong: got %v, want %v", order, want)
		}
	}
}

func TestEngineOrderWithinDomain(t *testing.T) {
	// Events must execute in dispatch-cycle order (full order at each
	// component is what gives the weave phase its accuracy).
	eng := NewEngine()
	s := NewSlab(64)
	var order []uint64
	for i := 10; i > 0; i-- {
		ev := s.Alloc()
		ev.MinCycle = uint64(i * 10)
		ev.Arg = uint64(i * 10)
		ev.Exec = func(e *Event, c uint64) uint64 {
			order = append(order, e.Arg)
			return c
		}
		eng.Enqueue(ev)
	}
	eng.Run()
	if len(order) != 10 {
		t.Fatalf("expected 10 executions, got %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events executed out of order: %v", order)
		}
	}
}

func TestManyEventsAcrossDomainsParallel(t *testing.T) {
	// A larger stress test: per-core chains touching shared components, all
	// on one engine. Every event must execute exactly once, and Run must
	// return the largest finish cycle.
	eng := NewEngine()
	s := NewSlab(1024)
	runs := make(map[*Event]int)
	const cores = 16
	const perCore = 50
	for c := 0; c < cores; c++ {
		var prev *Event
		for i := 0; i < perCore; i++ {
			ev := s.Alloc()
			ev.Ctx = (c + i) % 8 // the component, shared across chains
			ev.MinCycle = uint64(i * 10)
			ev.Exec = func(e *Event, cy uint64) uint64 {
				runs[e]++
				return cy + 3
			}
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
			}
			prev = ev
		}
	}
	end := eng.Run()
	if len(runs) != cores*perCore {
		t.Fatalf("expected %d events to execute, got %d", cores*perCore, len(runs))
	}
	var last uint64
	for ev, n := range runs {
		if n != 1 {
			t.Fatalf("event %d executed %d times", ev.Seq(), n)
		}
		last = max(last, ev.FinishCycle())
	}
	if end != last {
		t.Fatalf("Run returned %d, want the last finish cycle %d", end, last)
	}
}

func TestEnginePersistentAcrossIntervals(t *testing.T) {
	// One engine must serve many intervals back to back, exactly like the
	// bound-weave loop uses it: build graph, Run, reset slab, repeat.
	eng := NewEngine()
	s := NewSlab(64)
	var executed atomic.Int64
	for interval := 0; interval < 50; interval++ {
		s.Reset()
		var prev *Event
		for i := 0; i < 12; i++ {
			ev := s.Alloc()
			ev.MinCycle = uint64(interval*1000 + i*10)
			ev.Exec = func(_ *Event, c uint64) uint64 {
				executed.Add(1)
				return c + 2
			}
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
			}
			prev = ev
		}
		end := eng.Run()
		if end < uint64(interval*1000) {
			t.Fatalf("interval %d: end cycle %d below interval base", interval, end)
		}
	}
	if executed.Load() != 50*12 {
		t.Fatalf("every interval's events must run: got %d", executed.Load())
	}
}

func TestRunWithNoEvents(t *testing.T) {
	eng := NewEngine()
	if end := eng.Run(); end != 0 {
		t.Fatalf("empty run should return 0, got %d", end)
	}
}

// TestEngineRunSteadyStateAllocs is the allocation-regression guard for the
// weave hot path: once the slab and the engine's internal buffers have warmed
// up, building and running an interval's event graph must not allocate.
func TestEngineRunSteadyStateAllocs(t *testing.T) {
	eng := NewEngine()
	s := NewSlab(256)
	buildAndRun := func() {
		s.Reset()
		for c := 0; c < 4; c++ {
			var prev *Event
			for i := 0; i < 16; i++ {
				ev := s.Alloc()
				ev.MinCycle = uint64(i * 10)
				ev.Arg = 3
				ev.Exec = sharedExec
				if prev == nil {
					eng.Enqueue(ev)
				} else {
					prev.AddChild(ev)
				}
				prev = ev
			}
		}
		eng.Run()
	}
	// Warm up the slab, queues and scratch buffers.
	for i := 0; i < 3; i++ {
		buildAndRun()
	}
	allocs := testing.AllocsPerRun(20, buildAndRun)
	// The interval loop must be O(1) allocations; in practice it is zero once
	// warm, but allow a little headroom for runtime-internal noise.
	if allocs > 2 {
		t.Fatalf("steady-state interval should be allocation-free, got %v allocs/run", allocs)
	}
}

func sharedExec(ev *Event, c uint64) uint64 { return c + ev.Arg }

func TestNilExecFinishesInstantly(t *testing.T) {
	eng := NewEngine()
	s := NewSlab(4)
	ev := s.Alloc()
	ev.MinCycle = 42
	eng.Enqueue(ev)
	end := eng.Run()
	if !ev.Finished() || ev.FinishCycle() != 42 || end != 42 {
		t.Fatalf("nil-exec event should finish at its dispatch cycle: %d", ev.FinishCycle())
	}
}

// Property: for random chains with random latencies and lower bounds, every
// event executes exactly once, finish cycles are monotone along each chain,
// and no event finishes before its lower bound.
func TestEventChainProperties(t *testing.T) {
	f := func(latsRaw []uint8) bool {
		if len(latsRaw) == 0 {
			return true
		}
		if len(latsRaw) > 64 {
			latsRaw = latsRaw[:64]
		}
		eng := NewEngine()
		s := NewSlab(128)
		var chain []*Event
		var prev *Event
		for i, l := range latsRaw {
			ev := s.Alloc()
			ev.MinCycle = uint64(i)
			ev.Arg = uint64(l % 50)
			ev.Exec = sharedExec
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
			}
			chain = append(chain, ev)
			prev = ev
		}
		eng.Run()
		var last uint64
		for _, ev := range chain {
			if !ev.Finished() {
				return false
			}
			if ev.FinishCycle() < ev.MinCycle {
				return false
			}
			if ev.FinishCycle() < last {
				return false
			}
			last = ev.FinishCycle()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAddChildRejectsCreationOrderViolation checks that an edge from a later
// event to an earlier one is refused when it is declared: the engine's
// ordering argument needs every parent's sequence below its child's.
func TestAddChildRejectsCreationOrderViolation(t *testing.T) {
	s := NewSlab(16)
	early, late := s.Alloc(), s.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("AddChild from a later event to an earlier one did not panic")
		}
		if late.NumChildren() != 0 {
			t.Fatal("the refused edge was recorded")
		}
	}()
	late.AddChild(early)
}

// randomDAG builds a random event graph over per-core slabs (disjoint
// sequence bases, like the bound phase's). Every event draws up to three
// parents among the events created before it with a lower sequence number,
// a random lower bound, parent delay and latency, and one of four
// components. exec is every event's executor. It returns the graph's events
// in creation order and each event's parents.
func randomDAG(rng *rand.Rand, n int, exec Executor) (all []*Event, parents map[*Event][]*Event) {
	parents = make(map[*Event][]*Event)
	slabs := make([]*Slab, 4)
	for c := range slabs {
		slabs[c] = NewSlab(64)
		slabs[c].SetSeqBase(uint64(c) << 32)
	}
	for i := 0; i < n; i++ {
		ev := slabs[rng.Intn(len(slabs))].Alloc()
		ev.MinCycle = uint64(rng.Intn(400))
		ev.Delay = uint64(rng.Intn(4))
		ev.Arg = uint64(rng.Intn(30))
		ev.Flag = rng.Intn(2) == 0
		ev.Ctx = rng.Intn(4)
		ev.Exec = exec
		for k := rng.Intn(4); k > 0 && len(all) > 0; k-- {
			if p := all[rng.Intn(len(all))]; p.Seq() < ev.Seq() {
				p.AddChild(ev)
				parents[ev] = append(parents[ev], p)
			}
		}
		all = append(all, ev)
	}
	return all, parents
}

// runGraph enqueues every root of the graph on a fresh engine and runs it.
func runGraph(all []*Event) {
	eng := NewEngine()
	for _, ev := range all {
		if ev.Parentless() {
			eng.Enqueue(ev)
		}
	}
	eng.Run()
}

// TestEngineMatchesReferenceOrder checks the engine against brute-force
// references on random graphs, including many same-cycle ties:
//
//   - with fixed latencies (finish = dispatch + Arg), every event's final
//     dispatch cycle is computed by fixpoint over the graph, independent of
//     any execution order, and the engine must pop events in exactly the
//     sorted (dispatch, seq) order;
//   - with stateful per-component ports (the shape of the real contention
//     models), a quadratic reference that repeatedly executes the ready event
//     with the smallest (ready cycle, seq) must reproduce every finish cycle.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(300)

		// Fixed latencies: the dispatch fixpoint.
		type popped struct{ cycle, seq uint64 }
		var got []popped
		record := func(ev *Event, c uint64) uint64 {
			got = append(got, popped{c, ev.Seq()})
			return c + ev.Arg
		}
		all, parents := randomDAG(rng, n, record)
		dispatch := make(map[*Event]uint64)
		for changed := true; changed; {
			changed = false
			for _, ev := range all {
				d := ev.MinCycle
				for _, p := range parents[ev] {
					if r := dispatch[p] + p.Arg + ev.Delay; r > d {
						d = r
					}
				}
				if dispatch[ev] != d {
					dispatch[ev], changed = d, true
				}
			}
		}
		want := make([]popped, len(all))
		for i, ev := range all {
			want[i] = popped{dispatch[ev], ev.Seq()}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].cycle < want[j].cycle || want[i].cycle == want[j].cycle && want[i].seq < want[j].seq
		})
		runGraph(all)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pop order diverged from the (dispatch, seq) reference\n got: %v\nwant: %v", seed, got, want)
		}

		// Stateful ports: the quadratic ready-set reference.
		var busy [4]uint64
		port := func(ev *Event, c uint64) uint64 {
			b := &busy[ev.Ctx.(int)]
			start := max(c, *b)
			*b = start + ev.Arg
			if ev.Flag { // a pipelined hit frees the port early
				*b = start + 1
			}
			return start + ev.Arg
		}
		all, parents = randomDAG(rand.New(rand.NewSource(seed)), n, port)
		runGraph(all)
		engFinish := make([]uint64, len(all))
		for i, ev := range all {
			if !ev.Finished() {
				t.Fatalf("seed %d: event %d never ran", seed, ev.Seq())
			}
			engFinish[i] = ev.FinishCycle()
		}
		busy = [4]uint64{}
		finish := serialReference(all, parents, port)
		for i, ev := range all {
			if engFinish[i] != finish[ev] {
				t.Fatalf("seed %d: event %d finished at %d, reference %d", seed, ev.Seq(), engFinish[i], finish[ev])
			}
		}
	}
}

// serialReference computes every event's finish cycle by brute force: it
// repeatedly executes, with exec, the ready event with the smallest (ready
// cycle, seq), where an event is ready once all its parents have finished.
// all must hold the whole graph; parents maps each event to its parents.
func serialReference(all []*Event, parents map[*Event][]*Event, exec Executor) map[*Event]uint64 {
	finish := make(map[*Event]uint64)
	for len(finish) < len(all) {
		var best *Event
		var bestReady uint64
		for _, ev := range all {
			if _, ok := finish[ev]; ok {
				continue
			}
			ready, ok := ev.MinCycle, true
			for _, p := range parents[ev] {
				f, done := finish[p]
				if !done {
					ok = false
					break
				}
				ready = max(ready, f+ev.Delay)
			}
			if ok && (best == nil || ready < bestReady || ready == bestReady && ev.Seq() < best.Seq()) {
				best, bestReady = ev, ready
			}
		}
		finish[best] = max(bestReady, exec(best, bestReady))
	}
	return finish
}

// buildContendedGraph builds a reproducible multi-chain graph whose executors
// model per-component contention (each component is a serially reusable
// port, see portExec), so finish cycles depend on the exact per-component
// execution order. It enqueues the chain heads on eng and returns the events
// in creation order with each event's parents.
func buildContendedGraph(eng *Engine, busy []uint64) (all []*Event, parents map[*Event][]*Event) {
	const cores = 8
	const perCore = 24
	parents = make(map[*Event][]*Event)
	rng := uint64(0x9e3779b97f4a7c15)
	for c := 0; c < cores; c++ {
		s := NewSlab(perCore)
		s.SetSeqBase(uint64(c) << 32)
		var prev *Event
		for i := 0; i < perCore; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			ev := s.Alloc()
			ev.MinCycle = uint64(c*3 + i*11)
			ev.Arg = (rng >> 33) % uint64(len(busy)) // the component
			ev.Ctx = busy
			ev.Exec = portExec
			if prev == nil {
				eng.Enqueue(ev)
			} else {
				prev.AddChild(ev)
				parents[ev] = []*Event{prev}
			}
			all = append(all, ev)
			prev = ev
		}
	}
	return all, parents
}

// portExec models a pipelined single-port component: the access waits for the
// port to free, then occupies it for 4 cycles. Stateful per component, so
// results depend on per-component execution order.
func portExec(ev *Event, c uint64) uint64 {
	busy := ev.Ctx.([]uint64)
	start := max(c, busy[ev.Arg])
	busy[ev.Arg] = start + 4
	return start + 4
}

// TestParallelMatchesSerialReference is the engine-level bit-identity gate:
// on a contended multi-chain graph the engine must produce exactly the
// serial brute-force reference's finish cycle for every event, and two
// engines run on the same graph must agree with each other.
func TestParallelMatchesSerialReference(t *testing.T) {
	var runs [2][]uint64
	for r := range runs {
		eng := NewEngine()
		busy := make([]uint64, 8)
		all, parents := buildContendedGraph(eng, busy)
		eng.Run()
		for i, ev := range all {
			if !ev.Finished() {
				t.Fatalf("run %d: event %d did not finish", r, i)
			}
			runs[r] = append(runs[r], ev.FinishCycle())
		}
		clear(busy)
		want := serialReference(all, parents, portExec)
		for i, ev := range all {
			if runs[r][i] != want[ev] {
				t.Fatalf("run %d: event %d finish=%d, serial reference=%d", r, i, runs[r][i], want[ev])
			}
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two engines disagree on the same graph")
	}
}

// TestParallelPerComponentOrder pins the engine's ordering contract: each
// component sees its events in (final dispatch cycle, sequence) order, the
// pure function of the bound phase that makes weave results reproducible.
func TestParallelPerComponentOrder(t *testing.T) {
	eng := NewEngine()
	const comps = 8
	type rec struct {
		cycle uint64
		seq   uint64
	}
	orders := make([][]rec, comps)
	record := func(ev *Event, c uint64) uint64 {
		comp := ev.Ctx.(int)
		orders[comp] = append(orders[comp], rec{c, ev.Seq()})
		return c + ev.Arg
	}
	for core := 0; core < 8; core++ {
		s := NewSlab(20)
		s.SetSeqBase(uint64(core) << 32)
		var prevEv *Event
		for i := 0; i < 20; i++ {
			ev := s.Alloc()
			ev.Ctx = (core + i) % comps // the component
			ev.MinCycle = uint64(i * 5)
			ev.Arg = uint64(core%3) + 1
			ev.Exec = record
			if prevEv == nil {
				eng.Enqueue(ev)
			} else {
				prevEv.AddChild(ev)
			}
			prevEv = ev
		}
	}
	eng.Run()
	total := 0
	for comp, seen := range orders {
		total += len(seen)
		for i := 1; i < len(seen); i++ {
			a, b := seen[i-1], seen[i]
			if a.cycle > b.cycle || (a.cycle == b.cycle && a.seq > b.seq) {
				t.Fatalf("comp %d executed out of (cycle, seq) order: (%d,%d) before (%d,%d)",
					comp, a.cycle, a.seq, b.cycle, b.seq)
			}
		}
	}
	if total != 8*20 {
		t.Fatalf("expected %d executions, got %d", 8*20, total)
	}
}
