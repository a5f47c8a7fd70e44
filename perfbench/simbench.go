package main

import (
	"fmt"
	"runtime"
	"time"

	"zsim"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// scale multiplies every block budget and job size; 1 in the benchmark,
	// tiny in the self-test's smoke pass.
	scale float64
	// signatures are the recorded default-seed signatures by workload.
	signatures map[string][]signature
	// minJobs is the least number of interactive jobs zsimd-sweep runs: 200
	// gives its p95 ten samples beyond it.
	minJobs int
	// tr collects the traced run's spans (nil when untraced).
	tr *tracer
}

// roundStats accumulates the simulations of one kind of round (timed, or
// traced in a traced run).
type roundStats struct {
	runNanos map[string][]float64 // Run host time by program label
	instrs   map[string]uint64    // instructions of one run by program label
	rounds   []float64            // latency of each complete round, ms
	sims     int                  // simulations that succeeded
	simNanos float64              // their total latency
	ops      []*simOp
}

func newRoundStats() *roundStats {
	return &roundStats{runNanos: make(map[string][]float64), instrs: make(map[string]uint64)}
}

func (s *roundStats) add(p string, op *simOp) {
	s.runNanos[p] = append(s.runNanos[p], float64(op.res.HostTime))
	s.instrs[p] = op.res.Metrics.Instrs
	s.sims++
	s.simNanos += float64(op.latency)
	s.ops = append(s.ops, op)
}

// simMIPS is simulated instructions over host seconds inside Run, for one
// round built from each program's median Run time: the median keeps one slow
// outlier run from moving the figure, and taking every program once keeps
// the mix fixed however many rounds fit in the run.
func (s *roundStats) simMIPS() float64 {
	var instrs, nanos float64
	for p, ns := range s.runNanos {
		instrs += float64(s.instrs[p])
		nanos += median(ns)
	}
	return ratio(instrs*1e3, nanos)
}

// setupSamples is how many set-ups a simulation workload times before its
// reference round; setup_s is their median.
const setupSamples = 96

// measureSetup times zsim.New + AddWorkload, cycling through the programs,
// and drops each simulator unrun (an unrun simulator holds no goroutines).
// Each sample starts from a collected heap, as a first set-up in a fresh
// process does; back-to-back set-ups would otherwise pile up garbage, and
// the collector's timing would set both the samples and the peak RSS.
func measureSetup(w *simWorkload, progs []program) ([]float64, error) {
	var out []float64
	for i := 0; i < setupSamples; i++ {
		p := progs[i%len(progs)]
		runtime.GC()
		t0 := time.Now()
		sim, err := zsim.New(w.config())
		if err != nil {
			return nil, err
		}
		sim.AddWorkload(p.name, p.params, w.threads)
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// reference runs one round at one host thread, so that every simulated
// quantity repeats, and returns each program's simulation and signature.
func reference(w *simWorkload, progs []program) (map[string]*simOp, []signature, error) {
	ref := make(map[string]*simOp)
	var sigs []signature
	for _, p := range progs {
		op, err := runSim(w, p, 1, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		ref[p.label] = op
		sigs = append(sigs, signatureOf(p.label, op.res))
	}
	return ref, sigs, nil
}

// checkedSim runs one program under a "simulation" span and checks it
// against the program's reference run: it must end cleanly and simulate
// exactly the reference's instructions.
func checkedSim(w *simWorkload, p program, hostThreads int, tr *tracer, parent int, ref map[string]*simOp) (*simOp, error) {
	sp := tr.begin("simulation", parent)
	op, err := runSim(w, p, hostThreads, tr, sp)
	tr.end(sp)
	if err == nil && op.res.Metrics.Instrs != ref[p.label].res.Metrics.Instrs {
		err = fmt.Errorf("%s simulated %d instructions, reference %d", p.label,
			op.res.Metrics.Instrs, ref[p.label].res.Metrics.Instrs)
	}
	return op, err
}

// benchSim runs a simulation workload: set-up timing, a reference round at
// one host thread that fixes the simulated signature, then rounds at the
// default host threads for the configured seconds (whole rounds, at least
// one). An operation is one simulation; a job is one round, the workload's
// programs simulated back to back. In a traced run, rounds alternate
// untraced and traced, and the isolated layer drivers run afterwards.
func benchSim(w *simWorkload, cfg runConfig) *result {
	r := newResult()
	var ops tally
	progs := w.inputs(cfg.seed, cfg.scale)

	setups, err := measureSetup(w, progs)
	if err != nil {
		r.fail("set-up: %v", err)
		r.finish(tally{1, 1}, nil)
		return r
	}
	ref, sigs, err := reference(w, progs)
	ops.add(tally{len(progs), 0})
	if err != nil {
		ops.failed++
		r.fail("reference %v", err)
		r.finish(ops, nil)
		return r
	}
	if cfg.seed == defaultSeed && cfg.scale == 1 {
		if err := checkSignatures(sigs, cfg.signatures[w.name]); err != nil {
			r.fail("%v", err)
			ops.failed++ // the reference simulation produced a wrong output
		} else {
			r.note("signature: bit-identical to the recorded default-seed signature (%s)", hashSignatures(sigs))
		}
	} else {
		r.note("signature hash (seed %d): %s", cfg.seed, hashSignatures(sigs))
	}

	timed, traced := newRoundStats(), newRoundStats()
	start := time.Now()
	for round := 0; ; round++ {
		tr, stats := (*tracer)(nil), timed
		if cfg.traced && round%2 == 1 {
			tr, stats = cfg.tr, traced
		}
		root := tr.begin("round", 0)
		var roundNanos float64
		complete := true
		for _, p := range progs {
			op, err := checkedSim(w, p, 0, tr, root, ref)
			ops.record(err == nil)
			if err != nil {
				r.fail("%v", err)
				complete = false
				continue
			}
			stats.add(p.label, op)
			roundNanos += float64(op.latency)
		}
		tr.end(root)
		if complete {
			stats.rounds = append(stats.rounds, roundNanos/1e6)
		}
		enough := time.Since(start).Seconds() >= cfg.seconds
		if enough && (!cfg.traced || round >= 1) {
			break
		}
	}
	if len(timed.rounds) == 0 || (cfg.traced && len(traced.rounds) == 0) {
		r.fail("no round completed")
		r.finish(ops, nil)
		return r
	}

	if !cfg.traced {
		r.set(endToEnd, "sim_mips", timed.simMIPS())
		r.set(endToEnd, "setup_s", median(setups))
		r.set(endToEnd, "peak_rss_mb", peakRSSMiB())
		r.set(endToEnd, "points_per_s", ratio(float64(timed.sims)*1e9, timed.simNanos))
		r.set(endToEnd, "job_p50_ms", percentile(timed.rounds, 50))
		r.set(endToEnd, "job_p95_ms", percentile(timed.rounds, 95))
		r.note("%d rounds of %d programs; %d set-ups", len(timed.rounds), len(progs), len(setups))
		r.finish(ops, endToEnd)
		return r
	}

	untracedMIPS, tracedMIPS := timed.simMIPS(), traced.simMIPS()
	r.note("sim_mips untraced %.4f, traced %.4f", untracedMIPS, tracedMIPS)
	r.set(perLayer, "bench.trace_overhead", 1-ratio(tracedMIPS, untracedMIPS))
	simLayers(r, cfg.tr, traced.ops)
	refLayers(r, progs, ref)
	if err := layerDrivers(r, w, progs, cfg.tr); err != nil {
		r.fail("layer drivers: %v", err)
	}
	serveLayers(r, cfg, &ops)
	r.finish(ops, perLayer)
	return r
}

// jobLayers measures the simulation layers for zsimd-sweep on its campaign
// job, run through the facade at one host thread as the daemon runs it: a
// reference run, checked traced runs for about the given seconds, and the
// layer drivers.
func jobLayers(r *result, cfg runConfig, seconds float64, ops *tally) {
	w := sweepJob()
	progs := w.inputs(cfg.seed, cfg.scale)
	ref, _, err := reference(w, progs)
	ops.add(tally{len(progs), 0})
	if err != nil {
		ops.failed++
		r.fail("campaign job reference %v", err)
		return
	}
	var traced []*simOp
	for start := time.Now(); len(traced) == 0 || time.Since(start).Seconds() < seconds; {
		for _, p := range progs {
			op, err := checkedSim(w, p, 1, cfg.tr, 0, ref)
			ops.record(err == nil)
			if err != nil {
				r.fail("campaign job: %v", err)
				return
			}
			traced = append(traced, op)
		}
	}
	simLayers(r, cfg.tr, traced)
	refLayers(r, progs, ref)
	if err := layerDrivers(r, w, progs, cfg.tr); err != nil {
		r.fail("layer drivers: %v", err)
	}
}

// simLayers derives the boundweave, event, engine and Go runtime metrics
// from the traced simulations' probe snapshots, results, runtime/metrics
// deltas and imported TraceSink domain slices.
func simLayers(r *result, tr *tracer, ops []*simOp) {
	var instrs, events, intervals, rounds, runNs, boundNs, weaveNs float64
	var parks, wakes, handoffs, poolWakes, poolRuns float64
	var gcCPU, cpu, allocBytes, allocObjs float64
	for _, op := range ops {
		p := op.probe
		instrs += float64(op.res.Metrics.Instrs)
		events += float64(op.res.WeaveEvents)
		intervals += float64(op.res.Intervals)
		rounds += float64(op.res.BoundRounds)
		runNs += float64(op.res.HostTime)
		boundNs += float64(p.BoundNanos)
		weaveNs += float64(p.WeaveNanos)
		parks += float64(p.HorizonParks)
		wakes += float64(p.DomainWakes)
		handoffs += float64(p.CrossHandoffs)
		poolWakes += float64(p.PoolWakes)
		poolRuns += float64(p.PoolRuns)
		gcCPU += op.rt[0]
		cpu += op.rt[1]
		allocBytes += op.rt[2]
		allocObjs += op.rt[3]
	}
	r.set(perLayer, "boundweave.bound_ns_per_instr", ratio(boundNs, instrs))
	r.set(perLayer, "boundweave.weave_ns_per_event", ratio(weaveNs, events))
	r.set(perLayer, "boundweave.weave_share", ratio(weaveNs, runNs))
	r.set(perLayer, "boundweave.driver_ns_per_interval", ratio(runNs-boundNs-weaveNs, intervals))
	r.set(perLayer, "boundweave.rounds_per_interval", ratio(rounds, intervals))
	kev := events / 1000
	r.set(perLayer, "event.parks_per_kevent", ratio(parks, kev))
	r.set(perLayer, "event.wakes_per_kevent", ratio(wakes, kev))
	r.set(perLayer, "event.handoffs_per_kevent", ratio(handoffs, kev))
	r.set(perLayer, "engine.wakes_per_interval", ratio(poolWakes, intervals))
	r.set(perLayer, "engine.runs_per_interval", ratio(poolRuns, intervals))
	r.set(perLayer, "gc.cpu_share", ratio(gcCPU, cpu))
	r.set(perLayer, "gc.alloc_mb_per_minstr", ratio(allocBytes/(1<<20), instrs/1e6))
	r.set(perLayer, "gc.allocs_per_kinstr", ratio(allocObjs, instrs/1e3))

	// Stall share of the weave domains' busy time, from the imported
	// per-domain slices: "domain/weave" spans a domain's whole execution in
	// an interval, "domain/stall" the horizon waits inside it. Neither has
	// children, so their self times are their durations.
	self := tr.selfTimes()
	r.set(perLayer, "event.stall_share", ratio(float64(self["domain/stall"]), float64(self["domain/weave"])))
	var arena float64
	for _, op := range ops {
		arena += float64(op.res.ArenaBytes)
	}
	r.set(perLayer, "setup.arena_mb", arena/float64(len(ops))/(1<<20))
}

// refLayers reads the simulated per-layer counts from the reference round:
// they repeat exactly at one host thread.
func refLayers(r *result, progs []program, ref map[string]*simOp) {
	var instrs, l1d, l2, l3, joins, switches, locks, qdelay, conflicts float64
	for _, p := range progs {
		res := ref[p.label].res
		m := res.Metrics
		instrs += float64(m.Instrs)
		l1d += float64(m.L1DMisses)
		l2 += float64(m.L2Misses)
		l3 += float64(m.L3Misses)
		joins += float64(res.Sched.MidIntervalJoins)
		switches += float64(res.Sched.ContextSwitches)
		locks += float64(res.Sched.LockBlocks)
		qdelay += float64(res.NOC.QueueDelay)
		conflicts += float64(res.NOC.PortConflicts)
	}
	ki := instrs / 1000
	r.set(perLayer, "cache.l1d_mpki", ratio(l1d, ki))
	r.set(perLayer, "cache.l2_mpki", ratio(l2, ki))
	r.set(perLayer, "cache.l3_mpki", ratio(l3, ki))
	r.set(perLayer, "virt.mid_interval_joins", joins)
	r.set(perLayer, "virt.context_switches", switches)
	r.set(perLayer, "virt.lock_blocks", locks)
	r.set(perLayer, "noc.queue_delay_kcycles", qdelay/1000)
	r.set(perLayer, "noc.port_conflicts", conflicts)
}
