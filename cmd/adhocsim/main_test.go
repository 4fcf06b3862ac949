package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adhocsim"
)

// mainEnv turns the test binary into adhocsim itself: each test below
// re-executes os.Args[0] with it set, so every case is a real process
// running main() with real arguments and a real exit status.
const mainEnv = "ADHOCSIM_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// adhocsimIn runs the command with args in dir and returns its stdout,
// stderr and exit status. A process still running after a minute is killed
// (exit -1), so a regressed input check fails instead of hanging.
func adhocsimIn(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

func adhocsimCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	return adhocsimIn(t, t.TempDir(), args...)
}

func TestRunJSONMatchesLibrary(t *testing.T) {
	out, stderr, code := adhocsimCmd(t, "-proto", "aodv", "-nodes", "20", "-dur", "20", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	spec := adhocsim.DefaultSpec()
	spec.Nodes = 20
	spec.Duration = 20 * adhocsim.Second
	res, err := adhocsim.RunContext(context.Background(), adhocsim.RunConfig{Spec: spec, Protocol: adhocsim.AODV, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Protocol string
		adhocsim.Results
	}{adhocsim.AODV, res}); err != nil {
		t.Fatal(err)
	}
	if out != want.String() {
		t.Fatalf("CLI JSON differs from RunContext:\n%s\nwant:\n%s", out, want.String())
	}
}

func TestFigsWritesFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pause sweep")
	}
	dir := t.TempDir()
	if _, stderr, code := adhocsimIn(t, dir, "figs", "-dur", "5", "-only", "fig1,tab1", "-json", "-progress=false", "-out", "out"); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	files := []string{"fig1.csv", "fig1.json", "pause_sweep.json"}
	for _, p := range adhocsim.StudyProtocols() {
		files = append(files, "summary_"+strings.ToLower(p)+".json")
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(dir, "out", f)); err != nil {
			t.Error(err)
		}
	}
}

func TestSceneSections(t *testing.T) {
	out, stderr, code := adhocsimCmd(t, "scene", "-nodes", "10", "-dur", "20")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, section := range []string{"\nconnections:\n", "\nconnectivity over time"} {
		if !strings.Contains(out, section) {
			t.Errorf("scene output lacks %q:\n%s", section, out)
		}
	}
}

func TestVerifyReportsEveryFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference configurations")
	}
	out, stderr, code := adhocsimCmd(t, "verify", "-dur", "5", "-progress=false")
	// 5 s runs may legitimately fail findings (exit 1); the report must
	// still list all eight.
	if code != 0 && code != 1 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if n := strings.Count(out, "[PASS]") + strings.Count(out, "[FAIL]"); n != 8 {
		t.Fatalf("verify reported %d findings, want 8:\n%s", n, out)
	}
}

func TestModelsMatchesRegistries(t *testing.T) {
	out, stderr, code := adhocsimCmd(t, "models")
	if code != 0 || out != adhocsim.RenderRegistries() {
		t.Fatalf("exit %d, stderr %q, output:\n%s", code, stderr, out)
	}
}

// TestUsageErrorsExit2 covers flags a subcommand does not take, unknown
// subcommands, stray arguments and out-of-range shared values.
func TestUsageErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	spec := `{"base": {"nodes": 10, "duration_s": 5}, "protocols": ["DSR"], "max_reps": 1}`
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"campaign", "spec.json", "-seed", "7"},
		{"campaign", "spec.json", "spec.json"},
		{"campaign"},
		{"nosuch"},
		{"-proto", "DSR", "stray"},
		{"scene", "-every", "0"},
		{"scene", "-every", "-1"},
		{"verify", "-seeds", "0"},
		{"figs", "-dur", "-5"},
		{"-workers", "-1"},
	} {
		if _, stderr, code := adhocsimIn(t, dir, args...); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}
