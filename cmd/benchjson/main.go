// Command benchjson converts `go test -bench` text output (stdin) into a
// stable JSON document (stdout), so benchmark baselines can be committed
// and diffed across PRs:
//
//	go test -bench . -benchtime 1x | go run ./cmd/benchjson > BENCH_baseline.json
//
// Every benchmark line becomes one record with its ns/op and any custom
// b.ReportMetric values; context lines (goos, goarch, cpu, pkg) are carried
// through so a baseline records where it was measured.
//
// With -compare, the stdin stream is instead checked against a committed
// baseline: every benchmark present in both is reported with its ns/op
// ratio, drifts beyond -tolerance are flagged, and benchmarks present on
// only one side are called out. The exit status stays 0 unless -strict is
// set, so CI can surface the report without gating merges on a noisy shared
// runner.
//
//	go test -bench . -benchtime 1x ./... | go run ./cmd/benchjson -compare BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line. Package is the pkg: header
// in effect when the line was read, so a multi-package `./...` stream keeps
// same-named benchmarks from different packages apart.
type Benchmark struct {
	Package    string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document benchjson emits.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "compare stdin against this baseline JSON instead of emitting JSON")
	tolerance := flag.Float64("tolerance", 0.25, "relative ns/op drift treated as noise in -compare mode")
	strict := flag.Bool("strict", false, "with -compare, exit 1 when any benchmark regresses past the tolerance")
	flag.Parse()

	rep, err := parseStream(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *compare != "" {
		os.Exit(compareBaseline(rep, *compare, *tolerance, *strict))
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseStream reads `go test -bench` text output and returns the sorted
// Report the plain (non-compare) mode would emit.
func parseStream(r io.Reader) (Report, error) {
	rep := Report{GoVersion: runtime.Version()}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Package = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool {
		if rep.Benchmarks[i].Package != rep.Benchmarks[j].Package {
			return rep.Benchmarks[i].Package < rep.Benchmarks[j].Package
		}
		return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name
	})
	return rep, nil
}

// compareBaseline prints a per-benchmark ns/op ratio report of cur against
// the baseline JSON at path and returns the process exit code.
func compareBaseline(cur Report, path string, tol float64, strict bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		return 1
	}

	key := func(b Benchmark) string { return b.Package + " " + b.Name }
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[key(b)] = b
	}

	fmt.Printf("benchmark comparison vs %s (tolerance ±%.0f%%)\n", path, tol*100)
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		fmt.Printf("note: baseline cpu %q != current cpu %q — ratios are indicative only\n", base.CPU, cur.CPU)
	}
	fmt.Printf("%-58s %14s %14s %8s  %s\n", "benchmark", "baseline ns/op", "current ns/op", "ratio", "status")

	var regressions, improvements int
	for _, b := range cur.Benchmarks {
		bb, ok := baseBy[key(b)]
		if !ok {
			fmt.Printf("%-58s %14s %14.0f %8s  new (not in baseline)\n", b.Name, "-", b.NsPerOp, "-")
			continue
		}
		delete(baseBy, key(b))
		if bb.NsPerOp <= 0 || b.NsPerOp <= 0 {
			fmt.Printf("%-58s %14.0f %14.0f %8s  no ns/op\n", b.Name, bb.NsPerOp, b.NsPerOp, "-")
			continue
		}
		ratio := b.NsPerOp / bb.NsPerOp
		status := "ok"
		switch {
		case ratio > 1+tol:
			status = "REGRESSION"
			regressions++
		case ratio < 1-tol:
			status = "improved"
			improvements++
		}
		fmt.Printf("%-58s %14.0f %14.0f %7.2fx  %s\n", b.Name, bb.NsPerOp, b.NsPerOp, ratio, status)
	}

	var missing []string
	for k := range baseBy {
		missing = append(missing, baseBy[k].Name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("%-58s %14s %14s %8s  missing from current run\n", name, "-", "-", "-")
	}

	matched := len(base.Benchmarks) - len(missing)
	fmt.Printf("summary: %d compared, %d regressions, %d improvements, %d new, %d missing\n",
		matched, regressions, improvements, len(cur.Benchmarks)-matched, len(missing))
	if strict && regressions > 0 {
		return 1
	}
	return 0
}

// parseBench parses one result line:
//
//	BenchmarkName-8   3   123456 ns/op   95.2 DSR_pdr   0.5 extra_metric
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix so baselines diff cleanly across
		// machines with different core counts.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	// The remainder alternates "value unit".
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics[unit] = v
	}
	return b, true
}
