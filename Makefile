GO ?= go

.PHONY: verify fmt vet build test figs bench profile allocs race loc changes-cap fuzz pairs

## verify: the tier-1 gate — formatting, vet, build, tests.
verify: fmt vet build test

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## figs: regenerate the scaled evaluation figures (text + CSV + JSON).
figs:
	$(GO) run ./cmd/adhocsim figs -json

## race: the short test suite under the race detector. A run is one
## goroutine, so this covers the harness, campaign and cluster layers; the
## event-lane tests are not -short-gated and run here too.
race:
	$(GO) test -race -short ./...

## loc: non-test Go lines outside benchmark/ — the figure ROADMAP tracks —
## in total and per internal/ package. `make loc BASE=<rev>` prints the same
## counts for <rev> (from git archive, in a temp dir) beside the working
## tree's, with the difference.
loc:
ifeq ($(BASE),)
	@printf '%-34s %6d\n' 'non-test Go outside benchmark/' \
		$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)
	@for d in $$(find internal -type d | sort); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs -r cat | wc -l); \
		if [ $$n -gt 0 ]; then printf '  %-32s %6d\n' $$d $$n; fi; \
	done
else
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	git archive '$(BASE)' | tar -x -C "$$tmp" && \
	total() { (cd "$$1" && find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l); } && \
	pkg() { (cd "$$1" && find "$$2" -maxdepth 1 -name '*.go' ! -name '*_test.go' 2>/dev/null | xargs -r cat | wc -l); } && \
	a=$$(total "$$tmp") && b=$$(total .) && \
	printf '%-34s %10.10s %10s %6s\n' '' '$(BASE)' 'tree' 'diff' && \
	printf '%-34s %10d %10d %+6d\n' 'non-test Go outside benchmark/' $$a $$b $$((b-a)) && \
	for d in $$( { (cd "$$tmp" && find internal -type d); find internal -type d; } | sort -u); do \
		a=$$(pkg "$$tmp" $$d); b=$$(pkg . $$d); \
		if [ $$a -gt 0 ] || [ $$b -gt 0 ]; then \
			printf '  %-32s %10d %10d %+6d\n' $$d $$a $$b $$((b-a)); \
		fi; \
	done
endif

## changes-cap: the newest CHANGES.md entry — the last "- " line to the end
## of the file — stays within 10 lines and 2 000 bytes. Measurement logs go
## in the commit message beside the PR's BENCH_<n>.json.
changes-cap:
	@LC_ALL=C awk '/^- /{n=0; b=0} {n++; b+=length($$0)+1} \
		END{printf "newest CHANGES.md entry: %d lines, %d bytes (cap 10, 2000)\n", n, b; \
		exit (n>10 || b>2000)}' CHANGES.md

## fuzz: every fuzz target, as package:Target under internal/, for 20 s
## each. Minimising a merely-interesting input would eat the whole budget,
## so it is off; a failing input is still written to testdata/. Every
## target runs, and the loop fails at the end if any failed or is missing
## (go test passes a -fuzz pattern that matches nothing). FUZZ selects a
## subset: make fuzz FUZZ='sim:FuzzEventHeap topo:FuzzOracleHopDist'
FUZZ ?= sim:FuzzLaneDispatchOrder sim:FuzzEventHeap sim:FuzzRNGMatchesMathRand \
	campaign:FuzzJournalReplay campaign:FuzzSpecExpand campaign:FuzzUnitDispatch \
	metrics:FuzzSketchState metrics:FuzzSketchMergePass metrics:FuzzStreamsJSON topo:FuzzOracleHopDist \
	lifecycle:FuzzLifecycleSchedule
fuzz:
	@failed=; for t in $(FUZZ); do \
		pkg=$${t%%:*}; fn=$${t#*:}; \
		echo "== $$fn (./internal/$$pkg)"; \
		if ! $(GO) test -list "^$$fn\$$" ./internal/$$pkg | grep -qx "$$fn"; then \
			echo "no fuzz target $$fn in ./internal/$$pkg"; failed="$$failed $$t"; continue; \
		fi; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 20s -fuzzminimizetime 0 ./internal/$$pkg || failed="$$failed $$t"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz targets failed:$$failed"; exit 1; fi

## pairs: alternating parent/working-tree pairs of one command (cmd/pairs):
## wall and CPU time, and the METRIC list (comma-separated) of a
## `benchmark -workload` summary; median [q1–q3] per side, wins and the
## sign test. An adhocsim command's stdout must match across every run.
##   make pairs PARENT=HEAD~1 N=10 CMD='benchmark -workload campaign_cluster' METRIC=cached_units_per_s
PARENT ?= HEAD
N ?= 10
pairs:
	$(GO) run ./cmd/pairs -parent '$(PARENT)' -n '$(N)' -metric '$(METRIC)' -- $(CMD)

## bench: smoke-scale benchmarks (1 iteration each, shape check). The
## measurement path is `go run ./benchmark` (see benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## profile: capture CPU + heap pprof profiles of a mid-size city-scale
## single run (2000 nodes, manhattan mobility) into ./profiles. Inspect
## with `go tool pprof profiles/cpu.pprof`.
profile:
	@mkdir -p profiles
	$(GO) run ./cmd/adhocsim -nodes 2000 -w 4000 -h 800 -dur 30 \
		-proto CBRP -mobility manhattan \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof
	@echo wrote profiles/cpu.pprof profiles/mem.pprof

## allocs: where a run's allocations go. One run of the benchmarks BENCH
## matches, by default BenchmarkSingleRunCityScale/10k, with every allocation
## sampled (-memprofilerate 1, ~10 s for the city run), then the top
## allocation sites by objects and by bytes. Binary and profile stay in
## ./profiles. The paper regime's sites:
##   make allocs BENCH='BenchmarkFig1_PDRvsPause$'
BENCH ?= BenchmarkSingleRunCityScale$/^10k$
allocs:
	@mkdir -p profiles
	$(GO) test -run '^$$' -bench '$(value BENCH)' -benchtime 1x \
		-memprofilerate 1 -memprofile profiles/allocs.pprof -o profiles/adhocsim.test .
	@for idx in alloc_objects alloc_space; do \
		$(GO) tool pprof -sample_index=$$idx -top -nodecount 12 profiles/adhocsim.test profiles/allocs.pprof 2>&1 | \
			sed -E '/^(File|Build ID|Time):/d; s/\[go\.shape\..*\]/[…]/'; \
	done
