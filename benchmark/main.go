// Command benchmark is the repository's benchmark: four workloads, seven
// end-to-end metrics, per-layer metrics from a traced pass and from layer
// probes. See README.md in this directory.
//
//	go run ./benchmark                      every workload, untraced and traced; writes benchmark/out/result.json
//	go run ./benchmark -workload city_10k   one workload, end-to-end metrics
//	go run ./benchmark -workload city_10k -trace 1
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	workload := flag.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames())+" (default: all, each in its own process)")
	seed := flag.Int64("seed", 1, "simulator seed of the simulation workloads, base seed of the campaign")
	secs := flag.Float64("seconds", 20, "how long a workload keeps repeating its measured work")
	trace := flag.Int("trace", 0, "1: traced pass and layer probes, reporting the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two records: -compare a.json b.json")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for traces, records and temporary files")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareRecords(flag.Arg(0), flag.Arg(1)))
	case *workload == "":
		os.Exit(runAll(*seed, *secs, *outDir))
	}
	opt := options{Seed: foldSeed(*seed), Seconds: *secs, Trace: *trace != 0, OutDir: *outDir}
	if opt.Seed != *seed {
		fmt.Fprintf(os.Stderr, "-seed %d runs as seed %d (see foldSeed)\n", *seed, opt.Seed)
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r, err := runWorkload(*workload, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if b, err := json.MarshalIndent(r, "", " "); err == nil {
		err = os.WriteFile(runFile(opt.OutDir, r.Workload, opt.Trace), b, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	r.print()
	if r.OpsFailed > 0 {
		os.Exit(1)
	}
}

// options are the inputs of one run of one workload.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	OutDir  string
	// Tiny shrinks every scene and repetition count so that bench_test.go
	// can run all four workloads in a few seconds. Its numbers mean nothing.
	Tiny bool
}

// skipSeeds are seeds in 1..64 on which the simulator itself fails, found by
// TestVetSeeds. A benchmark run must not fail for reasons a change under
// test did not cause, so foldSeed routes around them.
//
//	17, 62: campaign_cluster, one AODV unit each: handleRREP dereferences a
//	    nil route when the destination of an RREP is asked to forward that
//	    RREP (internal/routing/aodv).
var skipSeeds = map[int64]bool{17: true, 62: true}

// foldSeed maps any -seed onto the vetted seeds: 1..64, and s+64 where s is
// skipped. Seeds 1..64 outside skipSeeds run as themselves.
func foldSeed(seed int64) int64 {
	s := (seed-1)%64 + 1
	if s < 1 {
		s += 64
	}
	if skipSeeds[s] {
		s += 64
	}
	return s
}

func runFile(outDir, workload string, trace bool) string {
	kind := "untraced"
	if trace {
		kind = "traced"
	}
	return filepath.Join(outDir, "run-"+workload+"-"+kind+".json")
}

func runWorkload(name string, opt options) (*result, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w.Run(opt), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames())
}

// runAll runs every workload untraced and traced, each run in a process of
// its own so that no run inherits another's heap, and writes the record.
func runAll(seed int64, secs float64, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rec := record{Host: thisHost(), Seed: seed, Seconds: secs}
	failed := false
	for _, w := range workloadNames() {
		var pair [2]*result
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "%s trace %d: %v\n", w, trace, err)
				failed = true
			}
			b, err := os.ReadFile(runFile(outDir, w, trace == 1))
			if err == nil {
				err = json.Unmarshal(b, &pair[trace])
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s trace %d: %v\n", w, trace, err)
				return 2
			}
		}
		rec.Workloads = append(rec.Workloads, workloadRecord{pair[0], pair[1]})
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(outDir, "result.json"))
	if failed {
		return 1
	}
	return 0
}
