package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"adhocsim"
)

// e2eEnv turns the test binary into adhocd itself: the e2e test re-executes
// os.Args[0] with it set, so every coordinator and worker below is a real
// process running main() with real flags.
const e2eEnv = "ADHOCD_E2E_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(e2eEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// e2eSpec is 3 protocols × 5 replications = 15 units of tens of
// milliseconds each, so a worker killed after the first commit dies
// mid-unit with work outstanding.
const e2eSpec = `{
  "name": "e2e",
  "base": {"nodes": 20, "area_w_m": 500, "duration_s": 200, "sources": 3},
  "protocols": ["DSR", "AODV", "CBRP"],
  "max_reps": 5
}`

var listenLine = regexp.MustCompile(`adhocd: listening on (\S+)\n`)

// child is one adhocd process; its stderr is kept for the failure log and
// scanned for the coordinator's "listening on" line.
type child struct {
	cmd *exec.Cmd

	mu     sync.Mutex
	stderr bytes.Buffer
	addr   chan string // receives the listen address, once
	sent   bool
}

func (c *child) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stderr.Write(p)
	if !c.sent {
		if m := listenLine.FindSubmatch(c.stderr.Bytes()); m != nil {
			c.addr <- string(m[1])
			c.sent = true
		}
	}
	return len(p), nil
}

func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(os.Args[0], args...), addr: make(chan string, 1)}
	c.cmd.Env = append(os.Environ(), e2eEnv+"=1")
	c.cmd.Stderr = c
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.cmd.Process.Kill() // no-op once reaped
		c.cmd.Wait()
		if t.Failed() {
			c.mu.Lock()
			t.Logf("adhocd %s:\n%s", strings.Join(args, " "), c.stderr.String())
			c.mu.Unlock()
		}
	})
	return c
}

// startCoordinator starts a pure coordinator on an ephemeral port and
// returns its base URL, read from the line the binary logs.
func startCoordinator(t *testing.T, args ...string) (*child, string) {
	t.Helper()
	c := startChild(t, append([]string{"-addr", "127.0.0.1:0", "-workers", "-1"}, args...)...)
	select {
	case addr := <-c.addr:
		return c, "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never logged its listen address")
		return nil, ""
	}
}

// drain SIGTERMs a child and requires a clean exit.
func (c *child) drain(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("adhocd %v after SIGTERM: %v", c.cmd.Args[1:], err)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func submit(t *testing.T, base string) (id string, maxRuns int) {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(e2eSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created struct {
		ID      string `json:"id"`
		MaxRuns int    `json:"max_runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	return created.ID, created.MaxRuns
}

// waitFor polls a campaign's progress until ok accepts the snapshot.
func waitFor(t *testing.T, base, id, what string, ok func(adhocsim.CampaignSnapshot) bool) adhocsim.CampaignSnapshot {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var snap adhocsim.CampaignSnapshot
		getJSON(t, base+"/campaigns/"+id, &snap)
		if snap.State == "failed" || snap.State == "cancelled" {
			t.Fatalf("campaign ended %s: %s", snap.State, snap.Err)
		}
		if ok(snap) {
			return snap
		}
		if done(snap) || time.Now().After(deadline) {
			t.Fatalf("waiting for %s: stuck at %+v", what, snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func done(s adhocsim.CampaignSnapshot) bool { return s.State == "done" }

// TestProcessesEndToEnd covers what only real processes reach: the binary's
// flag wiring, a SIGKILLed worker process, an on-disk cache shared by two
// coordinator processes, and SIGTERM drain exit codes. The protocol itself
// is internal/dist's to test.
func TestProcessesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts six processes")
	}
	var spec adhocsim.CampaignSpec
	if err := json.Unmarshal([]byte(e2eSpec), &spec); err != nil {
		t.Fatal(err)
	}
	want, err := adhocsim.RunCampaign(context.Background(), spec, adhocsim.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tmp := t.TempDir()
	cacheDir := filepath.Join(tmp, "cache")
	coord, base := startCoordinator(t, "-cache-dir", cacheDir, "-journal-dir", filepath.Join(tmp, "j"), "-lease-ttl", "2s")

	// -1 means "pure coordinator" only without -worker; a coordinator
	// rejects -workers below -1 and a lease TTL that is not positive.
	for _, args := range [][]string{
		{"-worker", "-join", base, "-workers", "-1"},
		{"-addr", "127.0.0.1:0", "-workers", "-5"},
		{"-addr", "127.0.0.1:0", "-lease-ttl", "0"},
		{"-addr", "127.0.0.1:0", "-lease-ttl", "-1s"},
	} {
		bad := startChild(t, args...)
		// A coordinator that accepted the flags would serve until killed.
		kill := time.AfterFunc(10*time.Second, func() { bad.cmd.Process.Kill() })
		err := bad.cmd.Wait()
		kill.Stop()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: %v, want exit status 2", strings.Join(args, " "), err)
		}
	}

	// Submitted first, so both workers lease on arrival instead of after an
	// idle poll; killing worker 1 while both single-slot workers hold a
	// lease orphans a unit for certain.
	id, _ := submit(t, base)
	w1 := startChild(t, "-worker", "-join", base, "-workers", "1")
	w2 := startChild(t, "-worker", "-join", base, "-workers", "1")
	waitFor(t, base, id, "a commit with both workers leased", func(s adhocsim.CampaignSnapshot) bool {
		var st struct {
			Leases int `json:"leases"`
		}
		getJSON(t, base+"/dist/status", &st)
		return s.RunsDone > 0 && st.Leases == 2
	})
	if err := w1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	w3 := startChild(t, "-worker", "-join", base, "-workers", "1")
	waitFor(t, base, id, "completion", done)

	var got adhocsim.CampaignResult
	getJSON(t, base+"/campaigns/"+id+"/results", &got)
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("cluster result differs from in-process RunCampaign:\nwant %+v\ngot  %+v", *want, got)
	}
	w2.drain(t)
	w3.drain(t)
	coord.drain(t)

	// A second coordinator process with no executors at all can only
	// finish from the cache directory the first one filled.
	coord2, base2 := startCoordinator(t, "-cache-dir", cacheDir)
	id2, maxRuns2 := submit(t, base2)
	snap := waitFor(t, base2, id2, "cache-served completion", done)
	if snap.RunsFromCache != snap.RunsDone || snap.RunsDone != maxRuns2 {
		t.Fatalf("resubmission recomputed runs: %d done, %d from cache, want all %d cached",
			snap.RunsDone, snap.RunsFromCache, maxRuns2)
	}
	var cached adhocsim.CampaignResult
	getJSON(t, base2+"/campaigns/"+id2+"/results", &cached)
	if !reflect.DeepEqual(*want, cached) {
		t.Fatal("cache-served result differs from in-process RunCampaign")
	}
	coord2.drain(t)
}
