package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
)

// TestVetSeeds is how skipSeeds in main.go was found: with
// BENCH_VET_SEEDS="1-64" it runs every workload's simulation work once per
// seed, recovers panics, and lists the seeds on which a run panics or breaks
// an invariant. It takes about 20 s of CPU per seed, so it is off by default.
func TestVetSeeds(t *testing.T) {
	var lo, hi int64
	if n, _ := fmt.Sscanf(os.Getenv("BENCH_VET_SEEDS"), "%d-%d", &lo, &hi); n != 2 {
		t.Skip("set BENCH_VET_SEEDS=lo-hi to vet seeds")
	}
	// try runs fn and turns a panic into an error.
	try := func(fn func() error) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn()
	}
	vet := func(seed int64) []string {
		var bad []string
		cfgs := paperStudy(seed, false)
		cfgs = append(cfgs, city10k(seed, false, false)...)
		cfgs = append(cfgs, city10k(seed, true, false)...)
		for _, c := range cfgs {
			if err := try(func() error {
				out, err := runPhased(c, nil, nil)
				if msg := checkRun(c, out); err == nil && msg != "" {
					err = fmt.Errorf("%s", msg)
				}
				return err
			}); err != nil {
				bad = append(bad, fmt.Sprintf("seed %d %s: %v", seed, c.Name, err))
			}
		}
		plan, err := clusterSpec(seed, clusterReps, false).Expand()
		if err != nil {
			return append(bad, err.Error())
		}
		for ci := range plan.Cells {
			for rep := 0; rep < clusterReps; rep++ {
				if err := try(func() error {
					_, err := plan.ExecuteUnit(context.Background(), ci, rep)
					return err
				}); err != nil {
					bad = append(bad, fmt.Sprintf("seed %d campaign unit (%d, %d): %v", seed, ci, rep, err))
				}
			}
		}
		return bad
	}

	seeds := make(chan int64)
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	for w := 0; w < clusterSlots(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				found := vet(seed)
				mu.Lock()
				bad = append(bad, found...)
				mu.Unlock()
				t.Logf("seed %d: %d bad", seed, len(found))
			}
		}()
	}
	for s := lo; s <= hi; s++ {
		seeds <- s
	}
	close(seeds)
	wg.Wait()
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
