GO ?= go

.PHONY: all fmt build vet test race chaos check bench

all: check

# fmt fails if gofmt would rewrite any file.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages must stay race-clean. mna/measure are
# here for the parallel sweep and the shared workspace pool;
# backend/gmid/opt for the parallel sizing-backend sweep; topology/bench
# for the generative benchmark's shared task set. Same list as
# scripts/check.sh.
race:
	$(GO) test -race ./internal/jobs ./internal/server ./internal/experiment \
		./internal/resilience ./internal/agents ./internal/telemetry \
		./internal/mna ./internal/measure ./internal/sizing ./internal/cluster \
		./internal/backend ./internal/gmid ./internal/opt \
		./internal/topology ./internal/bench

# Chaos: the deterministic fault-injection suite run twice, then the
# fleet chaos harness's long profile — a bigger fleet under a denser
# kill/restart/partition/brownout script with the invariant checkers
# over the merged end state (see internal/chaos and DESIGN.md).
chaos:
	$(GO) test ./internal/resilience/... -race -count=2
	ARTISAN_CHAOS_LONG=1 $(GO) test ./internal/chaos -race -count=1

check: fmt vet build test race chaos

# bench records (name, ns/op, allocs/op) as JSON in the untracked
# BENCH.json and fails on a >20% hot-path regression vs the committed
# baseline BENCH_pr9.json — the same gate as scripts/check.sh.
bench:
	scripts/bench.sh BENCH.json BENCH_pr9.json
