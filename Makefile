# Developer and CI entry points. `make ci` is exactly what the GitHub
# workflow runs; `make bench` and `make bench-core` track the perf
# trajectory in BENCH_conn.json / BENCH_core.json.

GO ?= go

.PHONY: build fmt vet test short race chaos cover bench bench-core bench-depth bench-server bench-shard bench-store bench-dblp bench-obs bench-smoke fuzz serve docs-check ci

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt required on:"; echo "$$out"; exit 1; fi

# paperbench/ is a nested module that the root ./... never reaches, so it
# is vetted (and thereby compiled against the internal API) on its own.
vet:
	$(GO) vet ./...
	cd paperbench && $(GO) vet ./...

# Full suite, including the slow experiment reproductions and torture tests.
test:
	$(GO) test ./...

# The fast path CI runs on every push (< ~2 minutes).
short:
	$(GO) test -short ./...

# Race detector over the concurrency-bearing packages (the statistical
# conformance harness exercises server+shard+conn together, so it rides
# in this gate too).
race:
	$(GO) test -race -short ./internal/worldstore ./internal/conn ./internal/sampler ./internal/core ./internal/server ./internal/shard ./internal/stattest ./internal/faultinject ./internal/obs

# Seeded chaos suite under the race detector: fault-injection proxies
# (internal/faultinject) kill, delay and corrupt the coordinator-worker
# path while the suite asserts every query either fails loudly or
# answers bit-identically to a fault-free run. Each run logs its seed;
# replay any failure exactly with CHAOS_SEED=<seed> make chaos.
chaos:
	$(GO) test -race -v -count=1 ./internal/faultinject
	$(GO) test -race -v -count=1 ./internal/shard -run 'TestChaos|TestBreaker|TestFlapQuarantine|TestCorruptFrame|TestAudit|TestWorkerDrain'
	$(GO) test -race -v -count=1 ./internal/stattest -run 'TestAdaptiveSurvives|TestAdaptiveAllWorkersDead|TestDrainCompletes'

# Coverage floor on the packages the adaptive path runs through. Fails
# if either package's total statement coverage drops below $(COVER_MIN)%.
COVER_MIN ?= 70
cover:
	@for pkg in ./internal/conn ./internal/server; do \
		$(GO) test -short -coverprofile=cover.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor $(COVER_MIN)%)"; \
		awk -v p="$$pct" -v min="$(COVER_MIN)" 'BEGIN { exit !(p+0 < min+0) }' && \
			{ echo "FAIL: $$pkg below $(COVER_MIN)% statement coverage"; rm -f cover.out; exit 1; } || true; \
	done
	@rm -f cover.out

# Run the query daemon on a built-in dataset (see docs/SERVER.md).
serve:
	$(GO) run ./cmd/ucserve -synthetic collins

# Documentation gate: no broken relative links, and the runnable examples
# still print exactly what their pinned output says.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) test ./examples/...

# Estimator-level benchmarks -> BENCH_conn.json so later changes can
# compare runs.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . | tee bench.out
	$(GO) run ./cmd/benchjson -suite conn < bench.out > BENCH_conn.json
	@rm -f bench.out
	@echo "wrote BENCH_conn.json"

# Algorithm-level benchmarks (MCP/ACP end to end, batched vs serial
# candidate scoring) -> BENCH_core.json.
bench-core:
	$(GO) test -bench='EndToEnd|FromCenters|MinPartial' -benchmem -run='^$$' ./internal/core | tee bench-core.out
	$(GO) run ./cmd/benchjson -suite core < bench-core.out > BENCH_core.json
	@rm -f bench-core.out
	@echo "wrote BENCH_core.json"

# Depth-limited scoring benchmarks (alpha=64, depth=2: the batched
# edge-bitmap engine vs the per-center BFS loop), merged into
# BENCH_core.json without disturbing the rest of the core suite.
bench-depth:
	$(GO) test -bench='FromCentersDepth2|MinPartialDepth2' -benchmem -run='^$$' ./internal/core | tee bench-depth.out
	$(GO) run ./cmd/benchjson -suite core -update BENCH_core.json < bench-depth.out
	@rm -f bench-depth.out
	@echo "merged depth suite into BENCH_core.json"

# Compile-and-run-once smoke over every benchmark, so bench code cannot
# rot between recorded runs. -benchtime=1x keeps it to seconds.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -short ./...

# Sharding benchmarks (coordinator scatter/gather over loopback workers
# vs in-process execution) -> BENCH_shard.json, merged in place so partial
# reruns keep the rest of the suite.
bench-shard:
	$(GO) test -bench='Scatter' -benchmem -run='^$$' ./internal/shard | tee bench-shard.out
	$(GO) run ./cmd/benchjson -suite shard -update BENCH_shard.json < bench-shard.out
	@rm -f bench-shard.out
	@echo "merged scatter suite into BENCH_shard.json"

# Tracing-overhead benchmark: the warm 4-worker scatter with a live
# trace per query (span tree + wire trace sections) next to the
# untraced ScatterWorkers/workers=4 baseline, merged into
# BENCH_shard.json. The acceptance bar is <5% overhead.
bench-obs:
	$(GO) test -bench='ScatterWorkers' -benchmem -run='^$$' ./internal/shard | tee bench-obs.out
	$(GO) run ./cmd/benchjson -suite shard -update BENCH_shard.json < bench-obs.out
	@rm -f bench-obs.out
	@echo "merged tracing-overhead suite into BENCH_shard.json"

# Storage-tier benchmarks (cold vs spilled-warm vs recompute block
# materialization, the bit-sliced accumulate kernel) -> BENCH_store.json,
# merged in place.
bench-store:
	$(GO) test -bench='BlockMaterialize' -benchmem -run='^$$' ./internal/worldstore | tee bench-store.out
	$(GO) test -bench='Accum' -benchmem -run='^$$' ./internal/sampler | tee -a bench-store.out
	$(GO) run ./cmd/benchjson -suite store -update BENCH_store.json < bench-store.out
	@rm -f bench-store.out
	@echo "merged store suite into BENCH_store.json"

# Paper-scale smoke: one pass of the full-size DBLP instance (636751
# authors) through the disk-backed store, merged into BENCH_store.json.
# Slow (graph generation alone takes several seconds).
bench-dblp:
	$(GO) test -bench='DBLPPaperScale' -benchmem -run='^$$' -benchtime=1x -timeout=30m ./internal/worldstore | tee bench-dblp.out
	$(GO) run ./cmd/benchjson -suite store -update BENCH_store.json < bench-dblp.out
	@rm -f bench-dblp.out
	@echo "merged paper-scale DBLP into BENCH_store.json"

# Fuzz the shard wire codec beyond the checked-in corpus (the corpus
# itself runs as seeds in every plain `go test`). FUZZTIME extends a run.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/shard -run='^$$' -fuzz=FuzzWireRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/shard -run='^$$' -fuzz=FuzzWireFrame -fuzztime=$(FUZZTIME)

# Daemon-level benchmarks (cold vs warm world store behind /v1/conn) ->
# BENCH_server.json.
bench-server:
	$(GO) test -bench='ConnColdStore|ConnWarmStore|ConnAdaptive' -benchmem -run='^$$' ./internal/server | tee bench-server.out
	$(GO) run ./cmd/benchjson -suite server < bench-server.out > BENCH_server.json
	@rm -f bench-server.out
	@echo "wrote BENCH_server.json"

ci: build fmt vet short race cover bench-smoke docs-check
