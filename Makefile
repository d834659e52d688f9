GO ?= go

.PHONY: build test vet race race-mp fuzz bench bench-json perfguard smoke serve-smoke serve-smoke-mp chaos-smoke prefix-smoke router-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector pass covers the packages with goroutine fan-out: the
# tensor kernels' pooled parallel paths, the campaign worker pool, and the
# serving scheduler with its shared read-only bounds store. race-mp repeats
# it at GOMAXPROCS=4 — adding internal/model so the mixed-phase fused-forward
# battery (co-batched prefill+decode with the per-(session×head) attention
# fan-out on pool workers) runs with real scheduler preemption even on
# single-core runners.
race:
	$(GO) test -race ./internal/tensor/... ./internal/campaign/... ./internal/serve/... ./internal/wire/... ./internal/router/...

race-mp:
	GOMAXPROCS=4 $(GO) test -race ./internal/tensor/... ./internal/model/... ./internal/campaign/... ./internal/serve/... ./internal/wire/... ./internal/router/...

# Scheduler differential fuzzing: random arrivals, prompt lengths, chunking,
# batch widths around the fusion crossover, slice lengths, protected/bare
# mixes, cancellations and the prefix cache, every completed session checked
# against the serving oracle. The committed seed corpus already runs in
# `make test`; this explores beyond it for FUZZTIME.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScheduleOracle -fuzztime $(FUZZTIME) ./internal/serve

bench:
	$(GO) test -run XXX -bench 'BenchmarkGenerate(Unprotected|FT2)' -benchmem .
	$(GO) test -run XXX -bench BenchmarkDecodeStep -benchmem ./internal/model/

bench-json:
	$(GO) run ./cmd/ft2bench -bench-json BENCH_decode.json

# Performance guard: with the calibrated kernel cost model, P=4
# single-session decode must not lose to P=1 on any model family and decode
# must stay allocation-free. Fails the build on regression.
perfguard:
	$(GO) run ./cmd/ft2bench -perfguard

# End-to-end resilience check: SIGINT a small campaign mid-run, resume it
# from the journal, and diff the final table against an uninterrupted run.
smoke:
	scripts/campaign_smoke.sh

# End-to-end serving check: selftest vs the oracle, concurrent HTTP traffic,
# metrics assertions, and a graceful SIGTERM drain with a request in flight.
# The -mp variant reruns it at GOMAXPROCS=4 to exercise the batched decode
# and pooled kernels under true concurrency.
serve-smoke:
	scripts/serve_smoke.sh

serve-smoke-mp:
	GOMAXPROCS=4 scripts/serve_smoke.sh

# Chaos-engineering check: derive an adaptive policy with ft2policy, run the
# ft2serve chaos selftest (control sessions bit-identical to the oracle under
# a seeded fault storm), then drive a live chaos-enabled server and verify
# metrics, the injection journal, and a graceful drain under fire.
chaos-smoke:
	scripts/chaos_smoke.sh

# Prefix-cache check: selftest (cold/warm shared-prefix storm vs the oracle),
# chaos selftest with the cache on, then a live cache-enabled server — warm
# HTTP responses bit-identical, prefix metrics live, SIGTERM drain with the
# cache populated.
prefix-smoke:
	scripts/prefix_smoke.sh

# Cluster check: router selftest (3 spawned workers, SIGKILL storm, every
# session bit-identical to the oracle), a live 2-worker cluster with the
# serving worker killed mid-stream twice, and durable session parking
# resumed across a worker restart.
router-smoke:
	scripts/router_smoke.sh

ci: vet build test race race-mp fuzz perfguard smoke serve-smoke serve-smoke-mp chaos-smoke prefix-smoke router-smoke
