package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"adhocsim"
	"adhocsim/internal/network"
	"adhocsim/internal/stats"
)

// result is what one run of one workload produces, end-to-end metrics with
// tracing off or per-layer metrics with tracing on.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Ops counts operations attempted (simulation runs and campaign
	// units); OpsFailed those that errored or failed a check.
	Ops       int      `json:"ops"`
	OpsFailed int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// ResultDigest is a sha256 over the workload's ResultsJSON. It is
	// informational: a speed-only change shows the simulated statistics
	// did not move, a protocol fix is free to move it.
	ResultDigest string          `json:"result_digest"`
	Metrics      map[string]stat `json:"metrics"`

	units  map[string]string
	digest []byte
	// wrap replaces traceFactory in traced passes; tests set it to show
	// that a broken decorator fails the equality check.
	wrap func(network.ProtocolFactory, *recorder) network.ProtocolFactory
}

func newResult(workload string, opt options) *result {
	r := &result{Workload: workload, Seed: opt.Seed, Trace: opt.Trace, Metrics: make(map[string]stat), units: make(map[string]string)}
	defs := endToEnd
	if opt.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

// fail marks n operations as failed.
func (r *result) fail(n int, format string, args ...any) {
	r.OpsFailed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric of this run's kind; metrics of the other kind are
// dropped, so callers need not branch on the trace flag.
func (r *result) set(name string, samples ...float64) {
	if unit, ok := r.units[name]; ok {
		r.setStat(name, summarize(unit, samples...))
	}
}

func (r *result) setStat(name string, s stat) {
	unit, ok := r.units[name]
	if !ok {
		return
	}
	if _, dup := r.Metrics[name]; dup {
		panic("benchmark: metric " + name + " emitted twice")
	}
	s.Unit = unit
	r.Metrics[name] = s
}

// addDigest folds one Results into the workload's digest.
func (r *result) addDigest(res stats.Results) {
	b, err := adhocsim.ResultsJSON(res)
	if err != nil {
		r.fail(1, "ResultsJSON: %v", err)
		return
	}
	r.digest = append(r.digest, b...)
}

// finish seals the result. A run that failed may have stopped before some
// metrics could be computed; they read zero. A run that did not fail and
// still lacks a metric is a bug in the benchmark.
func (r *result) finish() {
	sum := sha256.Sum256(r.digest)
	r.ResultDigest = hex.EncodeToString(sum[:])
	for name := range r.units {
		if _, ok := r.Metrics[name]; ok {
			continue
		}
		if r.OpsFailed == 0 {
			panic("benchmark: metric " + name + " not emitted on " + r.Workload)
		}
		r.set(name, 0)
	}
}

// print writes the human-readable table to standard output and, as its last
// line, the one JSON object the driver reads.
func (r *result) print() {
	w := os.Stdout
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed %d trace %v: %d ops, %d failed, result_digest %s\n", r.Workload, r.Seed, r.Trace, r.Ops, r.OpsFailed, r.ResultDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, name := range names {
		s := r.Metrics[name]
		fmt.Fprintf(w, "  %-32s %16.6g %-6s n=%-4d q1 %.6g q3 %.6g\n", name, s.Median, s.Unit, s.N, s.Q1, s.Q3)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for name, s := range r.Metrics {
		metrics[name] = value{s.Median, s.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.OpsFailed == 0, r.Ops, r.OpsFailed, metrics})
	fmt.Println(string(b))
}

// hostInfo says where a record was taken.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// record is one complete set of runs: every workload, traced and untraced.
// benchmark/results/BENCH_<pr>.json files are records.
type record struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}
