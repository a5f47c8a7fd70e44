package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"syscall"
)

// metricDef is one reported metric. The end-to-end and per-layer lists match
// BENCHMARK.json name for name and unit for unit (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"sim_mips", "Minstr/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"points_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// perLayer metrics read 0 on a workload that does no work of the kind they
// count or divide by (weave events on a contention-off chip, router traffic
// without NoC contention).
var perLayer = []metricDef{
	{"boundweave.bound_ns_per_instr", "ns"},
	{"boundweave.weave_ns_per_event", "ns"},
	{"boundweave.weave_share", "frac"},
	{"boundweave.driver_ns_per_interval", "ns"},
	{"boundweave.rounds_per_interval", "count"},
	{"event.stall_share", "frac"},
	{"event.parks_per_kevent", "count"},
	{"event.wakes_per_kevent", "count"},
	{"event.handoffs_per_kevent", "count"},
	{"engine.wakes_per_interval", "count"},
	{"engine.runs_per_interval", "count"},
	{"trace.ns_per_block", "ns"},
	{"isa.decode_ms", "ms"},
	{"core.ns_per_instr", "ns"},
	{"cache.ns_per_instr", "ns"},
	{"cache.l1d_mpki", "1/kinstr"},
	{"cache.l2_mpki", "1/kinstr"},
	{"cache.l3_mpki", "1/kinstr"},
	{"virt.mid_interval_joins", "count"},
	{"virt.context_switches", "count"},
	{"virt.lock_blocks", "count"},
	{"noc.queue_delay_kcycles", "kcycles"},
	{"noc.port_conflicts", "count"},
	{"setup.build_system_ms", "ms"},
	{"setup.new_simulator_ms", "ms"},
	{"setup.arena_mb", "MiB"},
	{"gc.cpu_share", "frac"},
	{"gc.alloc_mb_per_minstr", "MiB/Minstr"},
	{"gc.allocs_per_kinstr", "1/kinstr"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.pool_hit_rate", "frac"},
	{"serve.shed_frac", "frac"},
	{"campaign.submit_ms", "ms"},
	{"campaign.status_ms_p50", "ms"},
	{"pool.reset_ms", "ms"},
	{"pool.fresh_build_ms", "ms"},
	{"bench.trace_overhead", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one benchmark run; its JSON form is the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	problems []string
	notes    []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metricValue)}
}

// fail marks the run incorrect with a reason.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records metric name, which must be one of defs. Non-finite values
// (a ratio over a timer that read zero) are recorded as 0.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metricValue{v, d.unit}
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

// finish fills attempts and checks that every metric of defs was set.
func (r *result) finish(ops tally, defs []metricDef) {
	r.Attempted, r.Failed = ops.attempted, ops.failed
	if r.Attempted == 0 {
		r.fail("no operation attempted")
		r.Attempted = 1
		r.Failed = 1
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.fail("metric %s not measured", d.name)
		}
	}
}

// print writes the human-readable report, then the JSON line last.
func (r *result) print(w io.Writer, defs []metricDef) error {
	var b strings.Builder
	for _, n := range r.notes {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(&b, "  %-36s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(&b, "  failed %d of %d operations (share %.4f)\n", r.Failed, r.Attempted,
		tally{r.Attempted, r.Failed}.share())
	for _, p := range r.problems {
		fmt.Fprintf(&b, "  FAIL: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
