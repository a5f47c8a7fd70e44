package event

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// execFunc adapts a function to the Executor interface.
type execFunc func(i int32, ev *Event, c uint64) uint64

func (f execFunc) Exec(i int32, ev *Event, c uint64) uint64 { return f(i, ev, c) }

// addLatency finishes every event Arg cycles after its dispatch.
var addLatency = execFunc(func(_ int32, ev *Event, c uint64) uint64 { return c + ev.Arg })

// chain adds n events of the given kind as one parent-to-child chain, the
// i-th with lower bound base+i*step and Arg arg, and returns their indices.
func chain(g *Graph, n int, base, step, arg uint64) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = g.Add(Event{MinCycle: base + uint64(i)*step, Arg: arg, Kind: 1})
		if i > 0 {
			g.AddChild(idx[i-1], idx[i])
		}
	}
	return idx
}

func TestEventPQOrdering(t *testing.T) {
	var g Graph
	cycles := []uint64{9, 3, 7, 1, 8, 2, 6, 0, 5, 4}
	for i, c := range cycles {
		g.push(item{cycle: c, idx: int32(len(cycles) - i)})
	}
	g.push(item{cycle: 4, idx: 0}) // ties break on the index
	var got []item
	for n := len(g.pq) - 1; n >= 0; n-- {
		got = append(got, g.pq[0])
		g.pq[0] = g.pq[n]
		g.pq = g.pq[:n]
		g.down()
	}
	want := []item{{0, 3}, {1, 7}, {2, 5}, {3, 9}, {4, 0}, {4, 1}, {5, 2}, {6, 4}, {7, 8}, {8, 6}, {9, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pops out of (cycle, index) order:\n got %v\nwant %v", got, want)
	}
}

func TestSingleEventExecution(t *testing.T) {
	var g Graph
	ev := g.Add(Event{MinCycle: 100, Kind: 1})
	var got uint64
	end := g.Run(execFunc(func(_ int32, _ *Event, c uint64) uint64 { got = c; return c + 25 }))
	if !g.Finished(ev) {
		t.Fatalf("event should have executed")
	}
	if got != 100 {
		t.Fatalf("event should dispatch at its lower bound, got %d", got)
	}
	if g.FinishCycle(ev) != 125 || end != 125 {
		t.Fatalf("finish cycle wrong: %d / %d", g.FinishCycle(ev), end)
	}
}

func TestParentChildDelayPropagation(t *testing.T) {
	var g Graph
	parent := g.Add(Event{MinCycle: 10, Arg: 40, Kind: 1}) // finishes at 50
	// The child's lower bound is far below its real dispatch.
	child := g.Add(Event{MinCycle: 20, Delay: 5, Kind: 2})
	g.AddChild(parent, child)
	if g.NumChildren(parent) != 1 {
		t.Fatalf("child not registered")
	}
	var childDispatch uint64
	g.Run(execFunc(func(_ int32, ev *Event, c uint64) uint64 {
		if ev.Kind == 2 {
			childDispatch = c
		}
		return c + ev.Arg
	}))
	if !g.Finished(child) {
		t.Fatalf("child should run after parent")
	}
	if childDispatch != 55 {
		t.Fatalf("child should dispatch at parentFinish+delay = 55, got %d", childDispatch)
	}
}

func TestMultipleParentsWaitForAll(t *testing.T) {
	var g Graph
	p1 := g.Add(Event{Arg: 10, Kind: 1})
	p2 := g.Add(Event{Arg: 90, Kind: 1})
	child := g.Add(Event{Kind: 1})
	g.AddChild(p1, child)
	g.AddChild(p2, child)
	if g.NumChildren(p1) != 1 || g.NumChildren(p2) != 1 {
		t.Fatalf("edges not registered")
	}
	g.Run(addLatency)
	if !g.Finished(child) {
		t.Fatalf("child should execute after both parents")
	}
	if g.FinishCycle(child) != 90 {
		t.Fatalf("child should wait for the slower parent (90), got %d", g.FinishCycle(child))
	}
}

func TestCrossDomainChain(t *testing.T) {
	// A chain crossing components: core -> L3 bank -> memory -> core, like
	// Figure 4's request-response traffic.
	var g Graph
	core := g.Add(Event{MinCycle: 30, Kind: 1})
	l3 := g.Add(Event{MinCycle: 80, Arg: 20, Kind: 1}) // contention model adds 20 cycles
	mem := g.Add(Event{MinCycle: 110, Arg: 66, Kind: 1})
	resp := g.Add(Event{MinCycle: 250, Kind: 1})
	g.AddChild(core, l3)
	g.AddChild(l3, mem)
	g.AddChild(mem, resp)

	end := g.Run(addLatency)
	evs := []int32{core, l3, mem, resp}
	for i, ev := range evs {
		if !g.Finished(ev) {
			t.Fatalf("event %d did not finish", i)
		}
		// Finish cycles must be monotone along the chain.
		if i > 0 && g.FinishCycle(evs[i-1]) > g.FinishCycle(ev) {
			t.Fatalf("chain finish cycles not monotone at %d", i)
		}
	}
	// The response cannot finish before its lower bound.
	if g.FinishCycle(resp) < 250 {
		t.Fatalf("lower bound violated: %d", g.FinishCycle(resp))
	}
	if end < g.FinishCycle(resp) {
		t.Fatalf("run end cycle should cover the last event")
	}
}

func TestLowerBoundRespected(t *testing.T) {
	// A child whose MinCycle exceeds parentFinish+Delay dispatches at its
	// MinCycle (bound phase already guarantees it cannot be earlier).
	var g Graph
	p := g.Add(Event{Arg: 1, Kind: 1})
	ch := g.Add(Event{MinCycle: 500, Kind: 1})
	g.AddChild(p, ch)
	g.Run(addLatency)
	if g.FinishCycle(ch) != 500 {
		t.Fatalf("child should dispatch at its lower bound 500, got %d", g.FinishCycle(ch))
	}
}

// TestDeterministicTieBreak checks the (cycle, index) order: same-cycle
// events execute in the order they were added.
func TestDeterministicTieBreak(t *testing.T) {
	var g Graph
	for i := 0; i < 4; i++ {
		g.Add(Event{MinCycle: 50, Kind: 1})
	}
	var order []int32
	g.Run(execFunc(func(i int32, _ *Event, c uint64) uint64 {
		order = append(order, i)
		return c
	}))
	if want := []int32{0, 1, 2, 3}; !reflect.DeepEqual(order, want) {
		t.Fatalf("tie-break order wrong: got %v, want %v", order, want)
	}
}

func TestEngineOrderWithinDomain(t *testing.T) {
	// Events must execute in dispatch-cycle order (full order at each
	// component is what gives the weave phase its accuracy).
	var g Graph
	for i := 10; i > 0; i-- {
		g.Add(Event{MinCycle: uint64(i * 10), Kind: 1})
	}
	var order []uint64
	g.Run(execFunc(func(_ int32, _ *Event, c uint64) uint64 {
		order = append(order, c)
		return c
	}))
	if len(order) != 10 {
		t.Fatalf("expected 10 executions, got %d", len(order))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events executed out of order: %v", order)
	}
}

func TestManyEventsAcrossDomainsParallel(t *testing.T) {
	// A larger stress test: per-core chains touching shared components, all
	// on one graph. Every event must execute exactly once, and Run must
	// return the largest finish cycle.
	var g Graph
	const cores = 16
	const perCore = 50
	for c := 0; c < cores; c++ {
		for _, i := range chain(&g, perCore, 0, 10, 3) {
			g.At(i).Ctx = int32((c + int(i)) % 8) // the component, shared across chains
		}
	}
	runs := make([]int, g.Len())
	end := g.Run(execFunc(func(i int32, ev *Event, c uint64) uint64 {
		runs[i]++
		return c + ev.Arg
	}))
	var last uint64
	for i, n := range runs {
		if n != 1 {
			t.Fatalf("event %d executed %d times", i, n)
		}
		last = max(last, g.FinishCycle(int32(i)))
	}
	if len(runs) != cores*perCore {
		t.Fatalf("expected %d events, got %d", cores*perCore, len(runs))
	}
	if end != last {
		t.Fatalf("Run returned %d, want the last finish cycle %d", end, last)
	}
}

func TestEnginePersistentAcrossIntervals(t *testing.T) {
	// One graph must serve many intervals back to back, exactly like the
	// bound-weave loop uses it: build, Run, Reset, repeat.
	var g Graph
	executed := 0
	count := execFunc(func(_ int32, _ *Event, c uint64) uint64 {
		executed++
		return c + 2
	})
	for interval := 0; interval < 50; interval++ {
		g.Reset()
		if g.Len() != 0 {
			t.Fatalf("interval %d: Reset left %d events", interval, g.Len())
		}
		idx := chain(&g, 12, uint64(interval*1000), 10, 0)
		end := g.Run(count)
		if end < uint64(interval*1000) {
			t.Fatalf("interval %d: end cycle %d below interval base", interval, end)
		}
		if idx[0] != 0 || !g.Finished(idx[len(idx)-1]) {
			t.Fatalf("interval %d: graph not rebuilt from index 0 and run to completion", interval)
		}
	}
	if executed != 50*12 {
		t.Fatalf("every interval's events must run: got %d", executed)
	}
}

func TestRunWithNoEvents(t *testing.T) {
	var g Graph
	if end := g.Run(addLatency); end != 0 {
		t.Fatalf("empty run should return 0, got %d", end)
	}
}

// TestEngineRunSteadyStateAllocs is the allocation-regression guard for the
// weave hot path: once the graph's slices have warmed up, building and
// running an interval's event graph must not allocate.
func TestEngineRunSteadyStateAllocs(t *testing.T) {
	var g Graph
	buildAndRun := func() {
		g.Reset()
		for c := 0; c < 4; c++ {
			prev := int32(-1)
			for i := 0; i < 16; i++ {
				ev := g.Add(Event{MinCycle: uint64(i * 10), Arg: 3, Kind: 1})
				if prev >= 0 {
					g.AddChild(prev, ev)
				}
				prev = ev
			}
		}
		g.Run(addLatency)
	}
	// Warm up the graph's slices.
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

func TestNilExecFinishesInstantly(t *testing.T) {
	// Kind 0 events never reach the executor and finish at their dispatch
	// cycle.
	var g Graph
	ev := g.Add(Event{MinCycle: 42, Arg: 7})
	end := g.Run(execFunc(func(int32, *Event, uint64) uint64 {
		t.Fatal("executor called for a kind-0 event")
		return 0
	}))
	if !g.Finished(ev) || g.FinishCycle(ev) != 42 || end != 42 {
		t.Fatalf("kind-0 event should finish at its dispatch cycle: %d", g.FinishCycle(ev))
	}
}

// Property: for random chains with random latencies and lower bounds, every
// event executes exactly once, finish cycles are monotone along each chain,
// and no event finishes before its lower bound.
func TestEventChainProperties(t *testing.T) {
	f := func(latsRaw []uint8) bool {
		if len(latsRaw) > 64 {
			latsRaw = latsRaw[:64]
		}
		var g Graph
		prev := int32(-1)
		for i, l := range latsRaw {
			ev := g.Add(Event{MinCycle: uint64(i), Arg: uint64(l % 50), Kind: 1})
			if prev >= 0 {
				g.AddChild(prev, ev)
			}
			prev = ev
		}
		g.Run(addLatency)
		var last uint64
		for i := int32(0); i < int32(g.Len()); i++ {
			f := g.FinishCycle(i)
			if !g.Finished(i) || f < g.At(i).MinCycle || f < last {
				return false
			}
			last = f
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAddChildRejectsCreationOrderViolation checks that an edge from a later
// event to an earlier one is refused when it is declared: Run's ordering
// argument needs every parent's index below its child's.
func TestAddChildRejectsCreationOrderViolation(t *testing.T) {
	var g Graph
	early, late := g.Add(Event{}), g.Add(Event{})
	for _, e := range [][2]int32{{late, early}, {early, early}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddChild(%d, %d) did not panic", e[0], e[1])
				}
				if g.NumChildren(e[0]) != 0 {
					t.Fatal("the refused edge was recorded")
				}
			}()
			g.AddChild(e[0], e[1])
		}()
	}
}

// randomDAG builds a random event graph. Every event draws up to three
// parents among the events added before it, a random lower bound, parent
// delay and latency, and one of four components (Ctx). It returns the graph
// and each event's parents.
func randomDAG(rng *rand.Rand, n int) (*Graph, [][]int32) {
	g := new(Graph)
	parents := make([][]int32, n)
	for i := 0; i < n; i++ {
		ev := g.Add(Event{
			MinCycle: uint64(rng.Intn(400)),
			Delay:    uint64(rng.Intn(4)),
			Arg:      uint64(rng.Intn(30)),
			Flag:     rng.Intn(2) == 0,
			Ctx:      int32(rng.Intn(4)),
			Kind:     1,
		})
		for k := rng.Intn(4); k > 0 && ev > 0; k-- {
			p := int32(rng.Intn(int(ev)))
			g.AddChild(p, ev)
			parents[ev] = append(parents[ev], p)
		}
	}
	return g, parents
}

// TestEngineMatchesReferenceOrder checks Run against brute-force references
// on random graphs, including many same-cycle ties:
//
//   - with fixed latencies (finish = dispatch + Arg), every event's final
//     dispatch cycle is computed by fixpoint over the graph, independent of
//     any execution order, and Run must pop events in exactly the sorted
//     (dispatch, index) order;
//   - with stateful per-component ports (the shape of the real contention
//     models), a quadratic reference that repeatedly executes the ready event
//     with the smallest (ready cycle, index) must reproduce every finish
//     cycle.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	type popped struct {
		cycle uint64
		idx   int32
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(300)

		// Fixed latencies: the dispatch fixpoint.
		g, parents := randomDAG(rng, n)
		dispatch := make([]uint64, n)
		for changed := true; changed; {
			changed = false
			for i := range dispatch {
				d := g.At(int32(i)).MinCycle
				for _, p := range parents[i] {
					d = max(d, dispatch[p]+g.At(p).Arg+g.At(int32(i)).Delay)
				}
				if dispatch[i] != d {
					dispatch[i], changed = d, true
				}
			}
		}
		want := make([]popped, n)
		for i, d := range dispatch {
			want[i] = popped{d, int32(i)}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].cycle < want[j].cycle || want[i].cycle == want[j].cycle && want[i].idx < want[j].idx
		})
		var got []popped
		g.Run(execFunc(func(i int32, ev *Event, c uint64) uint64 {
			got = append(got, popped{c, i})
			return c + ev.Arg
		}))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pop order diverged from the (dispatch, index) reference\n got: %v\nwant: %v", seed, got, want)
		}

		// Stateful ports: the quadratic ready-set reference.
		var busy [4]uint64
		port := execFunc(func(_ int32, ev *Event, c uint64) uint64 {
			b := &busy[ev.Ctx]
			start := max(c, *b)
			*b = start + ev.Arg
			if ev.Flag { // a pipelined hit frees the port early
				*b = start + 1
			}
			return start + ev.Arg
		})
		g, parents = randomDAG(rand.New(rand.NewSource(seed)), n)
		g.Run(port)
		busy = [4]uint64{}
		finish := serialReference(g, parents, port)
		for i := range finish {
			if !g.Finished(int32(i)) {
				t.Fatalf("seed %d: event %d never ran", seed, i)
			}
			if g.FinishCycle(int32(i)) != finish[i] {
				t.Fatalf("seed %d: event %d finished at %d, reference %d", seed, i, g.FinishCycle(int32(i)), finish[i])
			}
		}
	}
}

// serialReference computes every event's finish cycle by brute force: it
// repeatedly executes, with exec, the ready event with the smallest (ready
// cycle, index), where an event is ready once all its parents have finished.
// It reads only the events' exported fields, so it may run on a graph that
// has already been run.
func serialReference(g *Graph, parents [][]int32, exec Executor) []uint64 {
	n := g.Len()
	finish := make([]uint64, n)
	done := make([]bool, n)
	for left := n; left > 0; left-- {
		best, bestReady := int32(-1), uint64(0)
		for i := int32(0); i < int32(n); i++ {
			if done[i] {
				continue
			}
			ready, ok := g.At(i).MinCycle, true
			for _, p := range parents[i] {
				if !done[p] {
					ok = false
					break
				}
				ready = max(ready, finish[p]+g.At(i).Delay)
			}
			if ok && (best < 0 || ready < bestReady) {
				best, bestReady = i, ready
			}
		}
		ev := *g.At(best)
		finish[best] = max(bestReady, exec.Exec(best, &ev, bestReady))
		done[best] = true
	}
	return finish
}

// buildContendedGraph builds a reproducible multi-chain graph whose events
// each name one of len(busy) serially reusable ports (see portExec), so
// finish cycles depend on the exact per-component execution order. It
// returns each event's parents.
func buildContendedGraph(g *Graph, busy []uint64) [][]int32 {
	const cores = 8
	const perCore = 24
	parents := make([][]int32, cores*perCore)
	rng := uint64(0x9e3779b97f4a7c15)
	for c := 0; c < cores; c++ {
		for i, ev := range chain(g, perCore, uint64(c*3), 11, 0) {
			rng = rng*6364136223846793005 + 1442695040888963407
			g.At(ev).Ctx = int32((rng >> 33) % uint64(len(busy)))
			if i > 0 {
				parents[ev] = []int32{ev - 1}
			}
		}
	}
	return parents
}

// portExec models pipelined single-port components: an access waits for its
// port to free, then occupies it for 4 cycles. Stateful per component, so
// results depend on per-component execution order.
type portExec []uint64

func (busy portExec) Exec(_ int32, ev *Event, c uint64) uint64 {
	start := max(c, busy[ev.Ctx])
	busy[ev.Ctx] = start + 4
	return start + 4
}

// TestParallelMatchesSerialReference is the graph-level bit-identity gate:
// on a contended multi-chain graph Run must produce exactly the serial
// brute-force reference's finish cycle for every event, and two graphs run
// from the same construction must agree with each other.
func TestParallelMatchesSerialReference(t *testing.T) {
	var runs [2][]uint64
	for r := range runs {
		var g Graph
		busy := make(portExec, 8)
		parents := buildContendedGraph(&g, busy)
		g.Run(busy)
		for i := int32(0); i < int32(g.Len()); i++ {
			if !g.Finished(i) {
				t.Fatalf("run %d: event %d did not finish", r, i)
			}
			runs[r] = append(runs[r], g.FinishCycle(i))
		}
		clear(busy)
		want := serialReference(&g, parents, busy)
		if !reflect.DeepEqual(runs[r], want) {
			t.Fatalf("run %d: finish cycles diverge from the serial reference\n got %v\nwant %v", r, runs[r], want)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two runs disagree on the same graph")
	}
}

// TestParallelPerComponentOrder pins the ordering contract: each component
// sees its events in (final dispatch cycle, index) order, the pure function
// of the bound phase that makes weave results reproducible.
func TestParallelPerComponentOrder(t *testing.T) {
	var g Graph
	const comps = 8
	type rec struct {
		cycle uint64
		idx   int32
	}
	for core := 0; core < 8; core++ {
		for i, ev := range chain(&g, 20, 0, 5, uint64(core%3)+1) {
			g.At(ev).Ctx = int32((core + i) % comps) // the component
		}
	}
	orders := make([][]rec, comps)
	g.Run(execFunc(func(i int32, ev *Event, c uint64) uint64 {
		orders[ev.Ctx] = append(orders[ev.Ctx], rec{c, i})
		return c + ev.Arg
	}))
	total := 0
	for comp, seen := range orders {
		total += len(seen)
		for i := 1; i < len(seen); i++ {
			a, b := seen[i-1], seen[i]
			if a.cycle > b.cycle || (a.cycle == b.cycle && a.idx > b.idx) {
				t.Fatalf("comp %d executed out of (cycle, index) order: (%d,%d) before (%d,%d)",
					comp, a.cycle, a.idx, b.cycle, b.idx)
			}
		}
	}
	if total != 8*20 {
		t.Fatalf("expected %d executions, got %d", 8*20, total)
	}
}

// BenchmarkWeaveGraph builds and runs a synthetic 64-core interval: each
// core contributes a chain of accesses to 16 shared ports, and every
// access's response gates the core's next access, the shape the bound-weave
// driver builds. It reports the host cost per event.
func BenchmarkWeaveGraph(b *testing.B) {
	const cores, accesses, hops, ports = 64, 24, 3, 16
	var g Graph
	var busy Executor = make(portExec, ports)
	interval := func() {
		g.Reset()
		for c := 0; c < cores; c++ {
			prev := int32(-1)
			for a := 0; a < accesses; a++ {
				issue := uint64(a*40 + c)
				ev := g.Add(Event{MinCycle: issue})
				if prev >= 0 {
					g.AddChild(prev, ev)
				}
				for h := 0; h < hops; h++ {
					next := g.Add(Event{MinCycle: issue + uint64(h+1)*10, Ctx: int32((c + a + h) % ports), Kind: 1})
					g.AddChild(ev, next)
					ev = next
				}
				prev = g.Add(Event{MinCycle: issue + hops*10 + 10})
				g.AddChild(ev, prev)
			}
		}
		g.Run(busy)
	}
	interval() // warm the graph's slices: the rows report the steady state
	b.ReportAllocs()
	for b.Loop() {
		interval()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/event")
}
