// Command perfbench is the repository's benchmark: it runs one workload
// through the public zsim facade (three simulation workloads) or through an
// in-process zsimd server over loopback HTTP (zsimd-sweep), checks that the
// simulated outputs are correct, and prints every metric by name and unit,
// with a JSON object as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the separate
// traced run that splits host time across the layers and writes its spans
// to .bench_build/perfbench/. See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed signatures.json
var signaturesJSON []byte

// spanDir receives the traced run's span files, relative to the directory
// the benchmark runs from.
const spanDir = ".bench_build/perfbench"

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run (per-layer metrics)")
	record := flag.Bool("write-signatures", false, "record the default-seed signatures of every simulation workload into signatures.json in the current directory, then exit")
	flag.Parse()

	if *record {
		if err := writeSignatures("signatures.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var sigs map[string][]signature
	if err := json.Unmarshal(signaturesJSON, &sigs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: recorded signatures:", err)
		os.Exit(1)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		scale: 1, signatures: sigs, minJobs: 200}
	if cfg.traced {
		cfg.tr = &tracer{}
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if cfg.traced {
		if err := writeSpans(cfg, spanDir); err != nil {
			r.fail("write spans: %v", err)
		}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	if err := r.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !r.Correct {
		os.Exit(1)
	}
}

// run dispatches one workload.
func run(cfg runConfig) (*result, error) {
	if w := lookupSim(cfg.workload); w != nil {
		return benchSim(w, cfg), nil
	}
	if cfg.workload == sweepWorkload {
		return benchSweep(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// writeSpans writes the traced run's spans and prints the self time by span
// name, largest first.
func writeSpans(cfg runConfig, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// One file per workload: a traced run replaces the previous one's spans
	// (tens of MB on the weave workloads), so repeated runs do not pile up.
	path := filepath.Join(dir, "spans-"+cfg.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cfg.tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := cfg.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("spans: %d written to %s; self time by span:\n", len(cfg.tr.spans), path)
	for _, n := range names {
		fmt.Printf("  %-36s %12.3f ms\n", n, float64(self[n])/1e6)
	}
	return nil
}

// writeSignatures runs the reference round of every simulation workload at
// the default seed and records the signatures.
func writeSignatures(path string) error {
	sigs := make(map[string][]signature)
	for _, w := range simWorkloads {
		_, s, err := reference(w, w.inputs(defaultSeed, 1))
		if err != nil {
			return err
		}
		sigs[w.name] = s
	}
	b, err := json.MarshalIndent(sigs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
