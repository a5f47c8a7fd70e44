package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("no samples must read 0")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 45}}, 75},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 50}}, 60},
		{"nested in a sibling", []span{{Start: 60, End: 70}, {Start: 62, End: 68}}, 90},
		{"sticking out", []span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		{"outside", []span{{Start: 100, End: 200}}, 100},
		{"covering", []span{{Start: 0, End: 40}, {Start: 40, End: 100}}, 0},
		{"mixed", []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 60, End: 70},
			{Start: 65, End: 68}, {Start: 90, End: 120}}, 40},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimesByName(t *testing.T) {
	tr := &tracer{}
	run := tr.add("run", 0, 0, 100)
	bound := tr.add("bound", run, 10, 40)
	tr.add("weave", run, 40, 90)
	tr.add("domain", bound, 15, 25) // grandchild: counted against bound only
	tr.add("domain", bound, 20, 35) // overlaps its sibling
	self := tr.selfTimes()
	want := map[string]int64{"run": 20, "bound": 10, "weave": 50, "domain": 25}
	for n, w := range want {
		if self[n] != w {
			t.Errorf("self[%s] = %d, want %d", n, self[n], w)
		}
	}
	var none *tracer // an untraced run records nothing
	if none.begin("x", 0) != 0 || none.add("x", 0, 0, 1) != 0 {
		t.Error("nil tracer recorded a span")
	}
	none.end(0)
}

func TestImportTrace(t *testing.T) {
	tr := &tracer{}
	run := tr.add("zsim.Run", 0, 0, 10_000_000)
	export := `[{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"phases"}},
{"ph":"X","pid":1,"tid":0,"name":"bound","ts":1000,"dur":3000,"args":{"n":1}},
{"ph":"X","pid":1,"tid":1,"name":"weave","ts":4000,"dur":5000,"args":{"n":7}}]`
	n, err := tr.importTrace(run, []byte(export))
	if err != nil || n != 2 {
		t.Fatalf("imported %d slices, err %v", n, err)
	}
	if s := tr.spans[1]; s.Name != "phases/bound" || s.Parent != run || s.Start != 1_000_000 || s.End != 4_000_000 {
		t.Errorf("bound slice imported as %+v", s)
	}
	if s := tr.spans[2]; s.Name != "domain/weave" || s.End-s.Start != 5_000_000 {
		t.Errorf("domain slice imported as %+v", s)
	}
	if got := tr.selfTimes()["zsim.Run"]; got != 2_000_000 {
		t.Errorf("Run self time %d, want 2ms", got)
	}
}

func TestFailureShare(t *testing.T) {
	var a tally
	for _, ok := range []bool{true, false, true, true} {
		a.record(ok)
	}
	if a.attempted != 4 || a.failed != 1 || a.share() != 0.25 {
		t.Errorf("tally %+v share %g", a, a.share())
	}
	a.add(tally{attempted: 4, failed: 3})
	if a.share() != 0.5 {
		t.Errorf("after add: %+v share %g", a, a.share())
	}
	if (tally{}).share() != 0 {
		t.Error("empty tally must share 0")
	}
	// A run that attempted nothing still reports one attempt, failed, and is
	// incorrect: attempted must be at least 1 in the output.
	r := newResult()
	r.finish(tally{}, nil)
	if r.Correct || r.Attempted != 1 || r.Failed != 1 {
		t.Errorf("empty run reported %+v", r)
	}
	// A missing metric makes the run incorrect.
	r = newResult()
	r.set(endToEnd, "sim_mips", 1)
	r.finish(tally{attempted: 1}, endToEnd)
	if r.Correct {
		t.Error("run with unmeasured metrics reported correct")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported names and units in step
// with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

// TestDefaultSeedSignatures: at the default seed, every simulation
// workload's reference round reproduces its recorded signature bit for bit.
func TestDefaultSeedSignatures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size reference rounds")
	}
	recorded := loadSignatures(t)
	for _, w := range simWorkloads {
		_, sigs, err := reference(w, w.inputs(defaultSeed, 1))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := checkSignatures(sigs, recorded[w.name]); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestCorruptedSignatureFailsRun: a recorded signature that differs in one
// simulated quantity makes the run incorrect and counts a failed operation;
// the intact signature passes.
func TestCorruptedSignatureFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size reference round")
	}
	w := lookupSim("mesh64-hotspot-noc")
	cfg := runConfig{workload: w.name, seed: defaultSeed, scale: 1, signatures: loadSignatures(t)}
	if r := benchSim(w, cfg); !r.Correct || r.Failed != 0 {
		t.Fatalf("intact signature: correct=%v failed=%d problems=%v", r.Correct, r.Failed, r.problems)
	}
	corrupt := loadSignatures(t)
	corrupt[w.name][0].NOCQueueDelay++
	cfg.signatures = corrupt
	r := benchSim(w, cfg)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted signature: correct=%v failed=%d", r.Correct, r.Failed)
	}
	if !strings.Contains(strings.Join(r.problems, "\n"), "signature mismatch") {
		t.Errorf("problems do not name the mismatch: %v", r.problems)
	}
}

func loadSignatures(t *testing.T) map[string][]signature {
	t.Helper()
	var sigs map[string][]signature
	if err := json.Unmarshal(signaturesJSON, &sigs); err != nil {
		t.Fatal(err)
	}
	return sigs
}

// TestSmoke runs all four workloads at a tiny size, timed and traced: every
// run must be correct, report every metric of its kind, and the traced runs
// must write their span files.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 7, seconds: 0.2, traced: traced, scale: 0.05, minJobs: 20}
			defs := endToEnd
			if traced {
				cfg.tr = &tracer{}
				defs = perLayer
			}
			r, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v %d/%d failed: %v", name, traced, r.Correct, r.Failed, r.Attempted, r.problems)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(defs))
			}
			if !traced {
				for _, d := range endToEnd {
					if r.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %g, want > 0", name, d.name, r.Metrics[d.name].Value)
					}
				}
				continue
			}
			if err := writeSpans(cfg, dir); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, "spans-"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
				t.Errorf("%s: span file holds %d spans (%v)", name, len(spans), err)
			}
		}
	}
}
