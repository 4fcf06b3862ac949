GO ?= go

.PHONY: verify fmt vet build test figs bench bench-baseline bench-compare profile race campaign-smoke dist-smoke scenario-smoke radio-smoke churn-smoke

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
	$(GO) run ./cmd/adhocfigs -json

## race: the short test suite under the race detector. A run is one
## goroutine, so this covers the harness, campaign and cluster layers; the
## event-lane tests are not -short-gated and run here too.
race:
	$(GO) test -race -short ./...

## campaign-smoke: drive a tiny 2-protocol × 2-seed campaign through the
## adhocd HTTP API on a loopback port (submit → poll → results → delete).
campaign-smoke:
	$(GO) run ./cmd/adhocd -smoke

## dist-smoke: distributed execution end to end — one coordinator plus two
## adhocd -worker child processes over loopback, one worker SIGKILLed and
## replaced mid-campaign. Asserts the distributed result is
## reflect.DeepEqual to the single-process result, that resubmitting the
## spec completes entirely from the content-addressed result cache, and
## that the SSE progress stream stays monotone.
dist-smoke:
	$(GO) run ./cmd/adhocd -smoke-dist

## scenario-smoke: run a tiny protocol × mobility × traffic model matrix
## through the campaign engine (exercises the scenario model registries).
scenario-smoke:
	$(GO) run ./examples/model_matrix

## radio-smoke: run a tiny protocol × radio model matrix under SINR
## reception through the campaign engine (exercises the radio registry and
## the cumulative-interference path).
radio-smoke:
	$(GO) run ./examples/radio_matrix

## churn-smoke: run the address-autoconfiguration protocol across a churn
## model × population matrix through the adhocd HTTP API on a loopback
## port, asserting every cell reports membership churn plus converged
## time_to_converge / addr_collision_rate summaries in the results JSON.
churn-smoke:
	$(GO) run ./cmd/adhocd -smoke-churn

## bench: smoke-scale benchmarks (1 iteration each, shape check).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-baseline: record the committed benchmark baseline as JSON (same
## ./... scope the CI bench-smoke step runs, so the two are comparable).
## Two steps, not a pipe, so a benchmark failure fails the target.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > bench.out.tmp
	$(GO) run ./cmd/benchjson < bench.out.tmp > BENCH_baseline.json
	@rm -f bench.out.tmp
	@echo wrote BENCH_baseline.json

## bench-compare: run the benchmarks and report per-benchmark ns/op drift
## against the committed BENCH_baseline.json. Informational — a drift past
## the tolerance prints REGRESSION but does not fail the target (pass
## BENCHJSON_FLAGS=-strict to make it gate).
BENCHJSON_FLAGS ?=
bench-compare:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > bench.out.tmp
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json $(BENCHJSON_FLAGS) < bench.out.tmp
	@rm -f bench.out.tmp

## profile: capture CPU + heap pprof profiles of a mid-size city-scale
## single run (2000 nodes, manhattan mobility, calendar scheduler) into
## ./profiles. Inspect with `go tool pprof profiles/cpu.pprof`.
profile:
	@mkdir -p profiles
	$(GO) run ./cmd/adhocsim -nodes 2000 -w 4000 -h 800 -dur 30 \
		-proto CBRP -mobility manhattan -scheduler calendar \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof
	@echo wrote profiles/cpu.pprof profiles/mem.pprof
