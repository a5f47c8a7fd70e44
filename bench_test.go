package zsim

// This file is the benchmark harness entry point: one benchmark per table and
// figure of the paper's evaluation section, plus ablation benchmarks for the
// design choices called out in DESIGN.md (instruction-driven cores vs
// re-decoding emulation, bound-only vs bound-weave, interval length).
//
// The benchmarks run the same code paths as cmd/zsimexp but at reduced scale
// so `go test -bench=. -benchmem` completes in minutes; EXPERIMENTS.md records
// a full-scale run of the zsimexp binary. Each benchmark reports simulated
// MIPS (or the experiment's headline quantity) through b.ReportMetric, so the
// benchmark output doubles as the regenerated rows/series.

import (
	"fmt"
	"testing"

	"zsim/internal/baseline"
	"zsim/internal/config"
	"zsim/internal/core"
	"zsim/internal/harness"
	"zsim/internal/isa"
	"zsim/internal/stats"
	"zsim/internal/trace"
)

// benchOpts returns harness options sized for benchmarking.
func benchOpts() harness.Options {
	return harness.Options{Scale: 0.05, MaxCores: 64}
}

// BenchmarkFig2PathAltering regenerates Figure 2: the fraction of accesses
// with path-altering interference for 1K/10K/100K-cycle intervals.
func BenchmarkFig2PathAltering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, fr := range res.Fractions {
			if fr[0] > worst {
				worst = fr[0]
			}
		}
		b.ReportMetric(worst, "worst-frac-1K")
	}
}

// BenchmarkFig5Validation regenerates the Figure 5 validation on a subset of
// the SPEC-like workloads (full suite in EXPERIMENTS.md).
func BenchmarkFig5Validation(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure5(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgAbsPerfError*100, "avg-abs-perf-err-%")
		b.ReportMetric(float64(res.Within10Pct), "within-10%")
	}
}

// BenchmarkFig6Contention regenerates Figure 6 (right): STREAM scalability
// under the different contention models.
func BenchmarkFig6Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure6Stream(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Series["No contention"][5], "nocont-speedup-6t")
		b.ReportMetric(res.Series["Ev-driven cont"][5], "evdriven-speedup-6t")
	}
}

// BenchmarkFig6Speedup regenerates Figure 6 (middle): PARSEC speedup curves
// under the golden reference and under zsim.
func BenchmarkFig6Speedup(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.02
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure6Speedup(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Zsim["blackscholes"][5], "zsim-blkschls-speedup-6t")
	}
}

// BenchmarkTable4ThousandCore regenerates Table 4: simulation performance on
// the large tiled chip for the four model combinations.
func BenchmarkTable4ThousandCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HMeanMIPS[harness.ModelIPC1NC], "hmean-MIPS-IPC1-NC")
		b.ReportMetric(res.HMeanMIPS[harness.ModelOOOC], "hmean-MIPS-OOO-C")
	}
}

// BenchmarkFig7SingleThread regenerates Figure 7: single-thread simulation
// performance for the four model combinations.
func BenchmarkFig7SingleThread(b *testing.B) {
	opts := benchOpts()
	opts.Scale = 0.02
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure7(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HMean[harness.ModelIPC1NC], "hmean-MIPS-IPC1-NC")
		b.ReportMetric(res.HMean[harness.ModelOOOC], "hmean-MIPS-OOO-C")
	}
}

// BenchmarkFig8HostScaling regenerates Figure 8: simulator speedup as host
// worker threads increase.
func BenchmarkFig8HostScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure8(benchOpts(), "blackscholes")
		if err != nil {
			b.Fatal(err)
		}
		sp := res.Speedup[harness.ModelIPC1NC]
		b.ReportMetric(sp[len(sp)-1], "speedup-max-host")
	}
}

// BenchmarkFig9TargetScaling regenerates Figure 9: hmean simulation MIPS as
// the simulated chip grows.
func BenchmarkFig9TargetScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		series := res.HMeanMIPS[harness.ModelIPC1NC]
		b.ReportMetric(series[len(series)-1], "hmean-MIPS-largest-chip")
	}
}

// BenchmarkIntervalSensitivity regenerates the Section 4.2 interval-length
// sweep (accuracy vs speed for 1K/10K/100K-cycle intervals).
func BenchmarkIntervalSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.IntervalSensitivity(benchOpts(), "")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HostSpeedup[2], "speedup-100K-vs-1K")
		b.ReportMetric(res.PerfError[2]*100, "perf-err-100K-%")
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (design choices from DESIGN.md)
// ---------------------------------------------------------------------------

// BenchmarkCoreModelSpeed measures raw core-model simulation speed (simulated
// instructions per host second) for the IPC1 and OOO instruction-driven
// models, the Section 3.1 headline claim.
func BenchmarkCoreModelSpeed(b *testing.B) {
	for _, kind := range []string{"ipc1", "ooo"} {
		b.Run(kind, func(b *testing.B) {
			cfg := config.WestmereValidation()
			cfg.CoreModel = config.CoreModel(kind)
			cfg.Contention = false
			params := trace.MustLookup("namd")
			params.BlocksPerThread = 1 << 30 // effectively unbounded; MaxInstrs stops the run
			sim, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sim.AddWorkload("namd", params, 1)
			sim.SetMaxInstructions(uint64(b.N) * 1000)
			sim.SetHostThreads(1)
			b.ResetTimer()
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(res.Metrics.SimMIPS, "sim-MIPS")
			b.ReportMetric(float64(res.Metrics.Instrs), "instrs")
		})
	}
}

// BenchmarkDecodeCacheVsRedecode quantifies the benefit of doing decode work
// once per static block (the DBT-style translation cache) versus re-decoding
// every dynamic block (emulation-style), on the same OOO core model.
func BenchmarkDecodeCacheVsRedecode(b *testing.B) {
	staticBlock := &isa.BasicBlock{ID: 1, Addr: 0x400000}
	for i := 0; i < 12; i++ {
		staticBlock.Instrs = append(staticBlock.Instrs, isa.Instruction{
			Op: isa.OpAddMem, Dst: isa.GPR(i % 8), Src1: isa.GPR(i % 8), Src2: isa.RBP, Bytes: 4,
		})
	}
	staticBlock.Instrs = append(staticBlock.Instrs,
		isa.Instruction{Op: isa.OpCmp, Src1: isa.RAX, Src2: isa.RBX, Bytes: 3},
		isa.Instruction{Op: isa.OpJcc, Bytes: 2})
	addrs := make([]uint64, 12)
	for i := range addrs {
		addrs[i] = uint64(0x10_0000_0000 + i*64)
	}

	b.Run("cached-decode", func(b *testing.B) {
		c := core.NewOOO(0, core.OOOWestmere(), core.MemPorts{}, stats.NewRegistry("c"))
		decoded := isa.Decode(staticBlock) // once, at "translation time"
		dyn := &trace.DynBlock{Decoded: decoded, Addrs: addrs, Taken: true}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SimulateBlock(dyn)
		}
		b.ReportMetric(float64(c.Instrs())/b.Elapsed().Seconds()/1e6, "sim-MIPS")
	})
	b.Run("redecode-every-block", func(b *testing.B) {
		emu := &baseline.EmulationCore{Inner: core.NewOOO(0, core.OOOWestmere(), core.MemPorts{}, stats.NewRegistry("c"))}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emu.SimulateStaticBlock(staticBlock, addrs, true)
		}
		b.ReportMetric(float64(emu.Inner.Instrs())/b.Elapsed().Seconds()/1e6, "sim-MIPS")
	})
}

// BenchmarkBoundVsBoundWeave measures the cost of the weave phase: the same
// workload with contention modeling off (bound only) and on (bound-weave).
func BenchmarkBoundVsBoundWeave(b *testing.B) {
	for _, contention := range []bool{false, true} {
		name := "bound-only"
		if contention {
			name = "bound-weave"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := config.TiledChip(2, config.CoreIPC1)
				cfg.Contention = contention
				sim, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				params := trace.MustLookup("ocean")
				params.BlocksPerThread = 100
				sim.AddWorkload("ocean", params, cfg.NumCores)
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Metrics.SimMIPS, "sim-MIPS")
			}
		})
	}
}

// BenchmarkLockstepPDESBaseline measures the pessimistic-PDES-style baseline
// (barrier every 10 cycles) so its cost can be compared against the
// bound-weave runs above.
func BenchmarkLockstepPDESBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.TiledChip(2, config.CoreIPC1)
		params := trace.MustLookup("ocean")
		params.BlocksPerThread = 100
		w := trace.New("ocean", params, cfg.NumCores)
		m, err := baseline.RunLockstep(cfg, w, 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = m
	}
}

// BenchmarkGoldenReference measures the sequential golden reference's speed,
// the sequential-simulation comparison point.
func BenchmarkGoldenReference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := config.WestmereValidation()
		params := trace.MustLookup("namd")
		params.BlocksPerThread = 300
		w := trace.New("namd", params, 6)
		res, err := baseline.RunGolden(cfg, w, 0)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkConstruct1024 measures construction cost only: building the
// 1,024-core tiled chip (Table 3), its scheduler and one 1,024-thread
// workload, plus the bound-weave simulator state (recorders, event slabs,
// weave engine, worker pool) — without simulating a single cycle. This is
// the path the arena-backed constructors exist for; run with -benchmem and
// compare against BENCH_2.json to catch construction-cost regressions.
func BenchmarkConstruct1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := config.TiledChip(64, config.CoreIPC1)
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim.AddWorkload("construct", trace.DefaultParams(), cfg.NumCores)
		sim.buildSim().Close()
	}
}

// BenchmarkMeshHotspot measures the weave-phase NoC contention subsystem on
// its headline experiment: a hotspot workload over an under-provisioned
// (4-byte-link) mesh, run under both the zero-load network model and the
// contended one. The reported metrics track the scaling-collapse gap the
// zero-load model cannot see and the router queueing behind it.
func BenchmarkMeshHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.MeshHotspot(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Threads) - 1
		b.ReportMetric(res.ScalingZeroLoad[last], "zeroload-scaling")
		b.ReportMetric(res.ScalingNoC[last], "noc-scaling")
		b.ReportMetric(float64(res.QueueDelay[last]), "router-queue-delay")
	}
}

// BenchmarkWeaveScaling measures host-thread scaling on the NoC-on
// mesh-hotspot workload: 1, 2 and 4 bound-phase host threads, with
// GOMAXPROCS set to match. The ht4 cell additionally reports its measured
// wall-clock speedup over a same-process single-thread reference run. Read
// speedups only from hosts with at least that many CPUs (see the ROADMAP
// benchmarking caveat); gate B/op and allocs/op everywhere.
func BenchmarkWeaveScaling(b *testing.B) {
	for _, ht := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ht%d", ht), func(b *testing.B) {
			b.ReportAllocs()
			var last *harness.WeaveScalingResult
			for i := 0; i < b.N; i++ {
				res, err := harness.WeaveScaling(benchOpts(), ht)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.SimMIPS, "sim-MIPS")
			if ht == 4 {
				ref, err := harness.WeaveScaling(benchOpts(), 1)
				if err != nil {
					b.Fatal(err)
				}
				if last.WallNanos > 0 {
					b.ReportMetric(float64(ref.WallNanos)/float64(last.WallNanos), "speedup-4t")
				}
			}
		})
	}
}

// BenchmarkOversubscribedClientServer measures the Section 3.3 usage model
// the mid-interval scheduler exists for: an oversubscribed client-server
// workload (20 software threads on 8 cores) whose server threads block in
// request waits and contend on request-queue locks. Wall-clock here tracks
// how well freed cores are refilled inside intervals.
func BenchmarkOversubscribedClientServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.OversubscribedClientServer(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.SimMIPS, "sim-MIPS")
		b.ReportMetric(float64(res.MidIntervalJoins), "mid-interval-joins")
	}
}

// BenchmarkPhaseBreakdown splits a contention-on run's host wall time by
// engine phase using the telemetry probe: bound-phase and weave-phase
// nanoseconds per job. The breakdown is diagnostic — it shows where a
// perf regression landed, not just that one happened — so record it into
// BENCH_6.json but gate on allocs/op and the simulated signature metrics,
// never the ns splits themselves (1-vCPU CI host, ROADMAP noise caveat).
func BenchmarkPhaseBreakdown(b *testing.B) {
	b.ReportAllocs()
	var boundNS, weaveNS, intervals float64
	for i := 0; i < b.N; i++ {
		cfg := config.TiledChip(2, config.CoreIPC1)
		cfg.Contention = true
		sim, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		params := trace.MustLookup("ocean")
		params.BlocksPerThread = 100
		sim.AddWorkload("ocean", params, cfg.NumCores)
		sim.SetHostThreads(2)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
		snap := sim.Probe().Snapshot()
		boundNS += float64(snap.BoundNanos)
		weaveNS += float64(snap.WeaveNanos)
		intervals += float64(snap.Intervals)
	}
	n := float64(b.N)
	b.ReportMetric(boundNS/n, "bound-ns/op")
	b.ReportMetric(weaveNS/n, "weave-ns/op")
	b.ReportMetric(intervals/n, "intervals")
}

// BenchmarkJobThroughput measures the warm-simulator reuse path against
// fresh per-job construction — the zsimd serving scenario where many small
// jobs of one configuration shape arrive back to back. "fresh" pays full
// construction (system, recorders, slabs, engine, worker pool) per job;
// "warm" builds once and Reset-rewinds between jobs, so per-job allocations
// collapse to near zero and throughput is bounded by simulation alone.
// Gate on jobs/sec ratio and allocs/op, not ns/op (1-vCPU CI host).
func BenchmarkJobThroughput(b *testing.B) {
	jobCfg := func() *Config {
		cfg := TiledConfig(16, "ipc1") // 64 cores: construction-dominated jobs
		cfg.Contention = true
		return cfg
	}
	runJob := func(b *testing.B, sim *Simulator) {
		b.Helper()
		params, _ := LookupWorkload("fluidanimate")
		params.BlocksPerThread = 25
		sim.AddWorkload("fluidanimate", params, 2)
		sim.SetHostThreads(2)
		sim.SetSeed(7)
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim, err := New(jobCfg())
			if err != nil {
				b.Fatal(err)
			}
			runJob(b, sim)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		sim, err := New(jobCfg())
		if err != nil {
			b.Fatal(err)
		}
		sim.SetReusable(true)
		defer sim.Close()
		runJob(b, sim) // establish the arena working set off the clock
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.Reset(nil); err != nil {
				b.Fatal(err)
			}
			runJob(b, sim)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
	})
}
