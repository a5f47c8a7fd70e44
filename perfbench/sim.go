package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"time"

	"zsim"
)

// signature is the simulated outcome of one program: every field is a
// simulated quantity, so at one host thread it repeats bit for bit.
type signature struct {
	Program          string  `json:"program"`
	Instrs           uint64  `json:"instrs"`
	Cycles           uint64  `json:"cycles"`
	L1DMPKI          float64 `json:"l1dMPKI"`
	L2MPKI           float64 `json:"l2MPKI"`
	L3MPKI           float64 `json:"l3MPKI"`
	WeaveEvents      uint64  `json:"weaveEvents"`
	NOCQueueDelay    uint64  `json:"nocQueueDelay"`
	ContextSwitches  uint64  `json:"contextSwitches"`
	MidIntervalJoins uint64  `json:"midIntervalJoins"`
	LockBlocks       uint64  `json:"lockBlocks"`
	BarrierWaits     uint64  `json:"barrierWaits"`
	SyscallBlocks    uint64  `json:"syscallBlocks"`
}

func signatureOf(program string, r *zsim.Result) signature {
	m := r.Metrics
	return signature{
		Program: program, Instrs: m.Instrs, Cycles: m.Cycles,
		L1DMPKI: m.L1DMPKI, L2MPKI: m.L2MPKI, L3MPKI: m.L3MPKI,
		WeaveEvents: r.WeaveEvents, NOCQueueDelay: r.NOC.QueueDelay,
		ContextSwitches: r.Sched.ContextSwitches, MidIntervalJoins: r.Sched.MidIntervalJoins,
		LockBlocks: r.Sched.LockBlocks, BarrierWaits: r.Sched.BarrierWaits,
		SyscallBlocks: r.Sched.SyscallBlocks,
	}
}

// hashSignatures is the FNV-64a hash of the signatures' JSON encoding.
func hashSignatures(sigs []signature) string {
	b, _ := json.Marshal(sigs) // plain struct slice: cannot fail
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkSignatures compares signatures field by field and names the first
// difference.
func checkSignatures(got, want []signature) error {
	if len(got) != len(want) {
		return fmt.Errorf("signature has %d programs, recorded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			return fmt.Errorf("signature mismatch for %s:\n  got    %s\n  record %s", got[i].Program, g, w)
		}
	}
	return nil
}

// runtime/metrics samples read around each traced Run.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// rtSample holds one value per rtNames entry, in the same order.
type rtSample [4]float64

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out rtSample
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

// simOp is one simulation: New + AddWorkload (set-up), then Run.
type simOp struct {
	latency time.Duration // from zsim.New to Run's return
	res     *zsim.Result
	probe   zsim.ProgressSnapshot
	rt      rtSample // runtime/metrics delta across Run (traced runs only)
}

// runSim runs one program on a fresh simulator seeded with the program's
// seed. hostThreads 0 keeps the default (all host CPUs). With a tracer, it
// records spans for each public call under parent and imports the run's
// TraceSink slices under the Run span. The error covers construction, a
// *zsim.RunError and a stalled run.
func runSim(w *simWorkload, p program, hostThreads int, tr *tracer, parent int) (*simOp, error) {
	op := &simOp{}
	t0 := time.Now()
	sp := tr.begin("zsim.New", parent)
	sim, err := zsim.New(w.config())
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("zsim.New: %w", err)
	}
	sp = tr.begin("zsim.AddWorkload", parent)
	sim.AddWorkload(p.name, p.params, w.threads)
	tr.end(sp)
	sim.SetSeed(p.seed)
	sim.SetHostThreads(hostThreads)
	var sink *zsim.TraceSink
	if tr != nil {
		sink = zsim.NewTraceSink(0)
		sim.SetTrace(sink)
	}

	var rt0 rtSample
	if tr != nil {
		rt0 = readRuntime()
	}
	runSpan := tr.begin("zsim.Run", parent)
	res, err := sim.Run()
	tr.end(runSpan)
	op.latency = time.Since(t0)
	if tr != nil {
		rt1 := readRuntime()
		for i := range rt1 {
			op.rt[i] = rt1[i] - rt0[i]
		}
	}
	op.res = res
	op.probe = sim.Probe().Snapshot()
	if err != nil {
		var re *zsim.RunError
		if errors.As(err, &re) {
			return op, fmt.Errorf("%s: run %s", p.label, re.Reason)
		}
		return op, fmt.Errorf("%s: %w", p.label, err)
	}
	if res.Stalled {
		return op, fmt.Errorf("%s: run stalled", p.label)
	}
	if sink != nil {
		if sink.Dropped() > 0 {
			return op, fmt.Errorf("%s: trace sink dropped %d slices", p.label, sink.Dropped())
		}
		var buf bytes.Buffer
		if err := sink.WriteJSON(&buf); err != nil {
			return op, fmt.Errorf("export trace: %w", err)
		}
		if _, err := tr.importTrace(runSpan, buf.Bytes()); err != nil {
			return op, err
		}
	}
	return op, nil
}
