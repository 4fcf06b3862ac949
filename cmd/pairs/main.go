// Command pairs measures a change in alternating pairs: it builds one
// command of this module at a parent revision (in a git worktree under a
// temporary directory) and from the working tree, runs the two builds N
// times each, one process per run, alternating which side goes first, and
// prints every run and then, per measure, each side's median [q1–q3], the
// relative difference, the pairs the working tree won, and the exact
// one-sided sign-test p-value of those wins.
//
// The measures are wall time and the child's CPU time (user + system),
// and, for a `benchmark -workload` command, the metrics named by -metric
// (comma-separated), read from the last line of the run's standard output
// (the benchmark's JSON summary) with the direction BENCHMARK.json
// declares for each. A run
// that exits non-zero, or whose summary reports failed operations, fails
// the tool. For an `adhocsim` command the tool also compares every run's
// standard output with the first one's and fails when any differs, so a
// claim of bit-identical output is checked by the same runs.
//
//	go run ./cmd/pairs -parent HEAD~1 -n 10 -metric cached_units_per_s -- benchmark -workload campaign_cluster
//	make pairs PARENT=HEAD N=2 CMD='adhocsim -proto AODV -dur 5'
//
// The command's first word names its package: ./cmd/<name>, else ./<name>.
// Every run's working directory is a per-side temporary directory, so what
// a run writes relative to it (benchmark/out) never lands in the tree.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"adhocsim/internal/stats"
)

func main() {
	parent := flag.String("parent", "HEAD", "the revision to compare the working tree with")
	n := flag.Int("n", 10, "pairs to run")
	metric := flag.String("metric", "", "metrics of a `benchmark -workload` command's JSON summary to compare, comma-separated")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pairs [-parent rev] [-n pairs] [-metric name,...] -- command [args...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var metrics []string
	if *metric != "" {
		metrics = strings.Split(*metric, ",")
	}
	code := run(ctx, *parent, *n, metrics, flag.Args())
	stop()
	os.Exit(code)
}

// side is one build under comparison.
type side struct {
	name string // "parent" or "tree"
	bin  string
	dir  string // working directory of its runs
	runs []sample
}

// sample is one run's measures.
type sample struct {
	wall, cpu float64   // seconds
	metrics   []float64 // parallel to the -metric names
	stdout    []byte
}

// measure is one row of the summary.
type measure struct {
	name   string
	higher bool // a higher value is better
	get    func(sample) float64
}

func run(ctx context.Context, parent string, n int, metrics []string, args []string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		return 2
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return fail(err)
	}
	rev, err := git(root, "rev-parse", "--verify", "--short", parent+"^{commit}")
	if err != nil {
		return fail(err)
	}
	measures := []measure{
		{name: "wall_s", get: func(s sample) float64 { return s.wall }},
		{name: "cpu_s", get: func(s sample) float64 { return s.cpu }},
	}
	if len(metrics) > 0 && !slices.Contains(args, "-workload") {
		return fail(errors.New("-metric needs a `benchmark -workload` command"))
	}
	for i, name := range metrics {
		higher, err := direction(root, name)
		if err != nil {
			return fail(err)
		}
		measures = append(measures, measure{name, higher, func(s sample) float64 { return s.metrics[i] }})
	}
	pkg := "./cmd/" + args[0]
	if _, err := os.Stat(filepath.Join(root, pkg)); err != nil {
		pkg = "./" + args[0]
	}

	tmp, err := os.MkdirTemp("", "pairs-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	worktree := filepath.Join(tmp, "parent-src")
	if _, err := git(root, "worktree", "add", "--detach", "--quiet", worktree, rev); err != nil {
		return fail(err)
	}
	defer func() {
		if _, err := git(root, "worktree", "remove", "--force", worktree); err != nil {
			fmt.Fprintln(os.Stderr, "pairs:", err)
		}
	}()
	sides := []*side{{name: "parent"}, {name: "tree"}}
	for i, src := range []string{worktree, root} {
		s := sides[i]
		s.bin = filepath.Join(tmp, s.name, args[0])
		s.dir = filepath.Join(tmp, s.name+"-run")
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return fail(err)
		}
		build := exec.CommandContext(ctx, "go", "build", "-o", s.bin, pkg)
		build.Dir = src
		if out, err := build.CombinedOutput(); err != nil {
			return fail(fmt.Errorf("building %s at %s: %v\n%s", pkg, s.name, err, out))
		}
	}

	fmt.Printf("pairs: %d pairs of `%s`, parent %s (%s) against the working tree, first side alternating\n",
		n, strings.Join(args, " "), rev, parent)
	failed := false
	for i := 0; i < n && !failed; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			r, err := runOnce(ctx, s, args[1:], metrics)
			if ctx.Err() != nil {
				return fail(ctx.Err())
			}
			line := fmt.Sprintf("pair %2d  %-6s  wall %8.3f s  cpu %8.3f s", i+1, s.name, r.wall, r.cpu)
			for j, v := range r.metrics {
				line += fmt.Sprintf("  %s %.6g", metrics[j], v)
			}
			fmt.Println(line)
			if err != nil {
				// A failed run ends the pairs; the summary covers the
				// pairs before it.
				fmt.Printf("  FAILED: %v\n", err)
				failed = true
				break
			}
			s.runs = append(s.runs, r)
		}
	}
	summarise(measures, sides[0], sides[1])
	if args[0] == "adhocsim" && !sameStdout(sides) {
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// runOnce runs one process of a side and measures it.
func runOnce(ctx context.Context, s *side, args []string, metrics []string) (sample, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, s.bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = s.dir, &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := sample{wall: time.Since(start).Seconds(), stdout: stdout.Bytes()}
	if st := cmd.ProcessState; st != nil {
		r.cpu = (st.UserTime() + st.SystemTime()).Seconds()
	}
	if err != nil {
		return r, fmt.Errorf("%v\n%s", err, tail(stderr.Bytes(), 20))
	}
	if !slices.Contains(args, "-workload") {
		return r, nil
	}
	// The benchmark's summary: {"correct", "attempted", "failed", "metrics"}.
	var sum struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	lines := bytes.Split(bytes.TrimSpace(r.stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return r, fmt.Errorf("reading the summary line: %v", err)
	}
	if !sum.Correct || sum.Failed > 0 {
		return r, fmt.Errorf("%d operations failed", sum.Failed)
	}
	for _, name := range metrics {
		m, ok := sum.Metrics[name]
		if !ok {
			return r, fmt.Errorf("the summary has no metric %q", name)
		}
		r.metrics = append(r.metrics, m.Value)
	}
	return r, nil
}

// summarise prints a row per measure: each side's median [q1–q3], the
// change of the tree's median, the pairs the tree won (ties count for
// neither side) and the sign test of those wins.
func summarise(measures []measure, parent, tree *side) {
	pairs := min(len(parent.runs), len(tree.runs))
	fmt.Printf("\n%-20s %-7s %-30s %-30s %9s %7s %9s\n", "measure", "better", "parent median [q1–q3]", "tree median [q1–q3]", "change", "wins", "p (sign)")
	if pairs == 0 {
		return
	}
	for _, m := range measures {
		a, b := values(parent.runs[:pairs], m.get), values(tree.runs[:pairs], m.get)
		wins, losses := 0, 0
		for i := range pairs {
			treeBetter := b[i] < a[i]
			if m.higher {
				treeBetter = b[i] > a[i]
			}
			switch {
			case b[i] == a[i]:
			case treeBetter:
				wins++
			default:
				losses++
			}
		}
		better := "lower"
		if m.higher {
			better = "higher"
		}
		ma, mb := median(a), median(b)
		fmt.Printf("%-20s %-7s %-30s %-30s %+8.1f%% %3d/%-3d %9.2g\n", m.name, better, spread(a), spread(b),
			100*(mb-ma)/ma, wins, pairs, stats.SignTest(wins, losses))
	}
}

// sameStdout reports whether every run of either side printed what the
// parent's first run printed, and says so.
func sameStdout(sides []*side) bool {
	if len(sides[0].runs) == 0 {
		return true
	}
	ref := sides[0].runs[0].stdout
	total := 0
	for _, s := range sides {
		for i, r := range s.runs {
			total++
			if !bytes.Equal(r.stdout, ref) {
				fmt.Printf("\nstdout: %s run %d differs from the parent's first run:\n%s", s.name, i+1, firstDiff(ref, r.stdout))
				return false
			}
		}
	}
	fmt.Printf("\nstdout: identical across all %d runs\n", total)
	return true
}

// firstDiff shows the first line where b departs from a.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < max(len(la), len(lb)); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return fmt.Sprintf("  line %d\n  - %s\n  + %s\n", i+1, x, y)
		}
	}
	return ""
}

// direction reads whether a higher value of metric is better from the
// BENCHMARK.json at root.
func direction(root, metric string) (higher bool, err error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var decl struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if m.Name == metric {
			return m.Better == "higher", nil
		}
	}
	return false, fmt.Errorf("BENCHMARK.json declares no metric %q", metric)
}

func values(runs []sample, get func(sample) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = get(r)
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.5g [%.5g–%.5g]", median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}

// tail returns the last n lines of b.
func tail(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// git runs git in dir ("" for the current directory) and returns its
// trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}
