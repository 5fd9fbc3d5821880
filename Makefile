# Developer entry points. `make check` is the full gate CI runs.

GO ?= go

.PHONY: check fmt vet build test race race-tiering race-service race-trace race-trace-native race-cluster race-fastpath bench bench-futamura corpus serve smoke cover fuzz-smoke

check: fmt vet build race-tiering race-service race-trace race-trace-native race-cluster race-fastpath race corpus cover fuzz-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tiered-execution promotion/deopt suite under the race detector, run with
# -count=1 so the concurrency-sensitive package is re-exercised every gate.
race-tiering:
	$(GO) test -race -count=1 ./internal/tier/...

# dbrewd end-to-end suite (coalescing, admission control, shutdown drain)
# plus the cache singleflight races, re-run fresh under the race detector.
race-service:
	$(GO) test -race -count=1 ./internal/service/... ./internal/codecache/...

# Fastpath baseline backend: the package suite plus the concurrency- and
# strategy-sensitive call sites — the deopt-during-in-flight-compile tier
# test, the dbrewd strategy selection, and the pinned copy-shortcut seeds —
# fresh under the race detector.
race-fastpath:
	$(GO) test -race -count=1 ./internal/fastpath/...
	$(GO) test -race -count=1 -run 'Fastpath' ./internal/tier ./internal/service ./internal/crosstest .

# Trace-tier suite (differential engines, deopt kernels, concurrent
# invalidation against a running trace) fresh under the race detector.
race-trace:
	$(GO) test -race -count=1 -run 'TestTrace' ./internal/jit

# Native trace backend suite fresh under the race detector: the
# native-vs-VM differential, the exit-stub deopt battery, trace-to-trace
# linking and its epoch invalidation, polymorphic trace selection, and
# concurrent invalidation against both a native and a VM machine. The
# native code itself is invisible to the detector; what this proves is
# that the Go side of the protocol (miss refills, link cache, counters)
# adds no unsynchronized state. TestTraceNativeFP* is the scalar SSE2
# battery: the per-op operand table, FP deopts and budget sweeps, the
# no-progress retirement rule, and (in internal/bench) the Sec. VI line
# kernels on all four engines plus their trace-engagement pin. On hosts
# without the native backend the same tests run the traces on the VM.
race-trace-native:
	$(GO) test -race -count=1 -run 'TestTraceNative|TestTraceLink|TestTracePoly|TestTraceReanchor|TestTraceAbortReasons' ./internal/jit
	$(GO) test -race -count=1 -run 'TestTraceNativeFP' ./internal/bench

# Persistence + fleet suite fresh under the race detector: two in-process
# nodes, 32 concurrent identical requests, the exactly-one-compile
# assertion, warm restarts, eviction broadcasts, and peer degradation —
# plus the disk store's crash/corruption battery.
race-cluster:
	$(GO) test -race -count=1 -run 'TwoNode|FleetEviction|KilledPeer|WarmRestart|Warming|WarmFailure|Artifact|Delta' ./internal/service
	$(GO) test -race -count=1 ./internal/diskcache/... ./internal/cluster/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Rewriter-evaluation corpus gate: every hard-idiom subject through every
# execution path. Fails on any wrong-code verdict, on a pass -> fallback
# regression against the committed BENCH_coverage.json, or if the Futamura
# speedup row drops below 2x. Regenerate the artifact with:
#   go run ./cmd/stencilbench -fig coverage -coverage-out BENCH_coverage.json
corpus:
	$(GO) test -count=1 ./internal/corpus/

# Interpreter-specialization benchmark row (first Futamura projection).
bench-futamura:
	$(GO) run ./cmd/stencilbench -fig futamura

# Run the specialization daemon on 127.0.0.1:7411.
serve:
	$(GO) run ./cmd/dbrewd

# dbrewd self-test against an ephemeral server.
smoke:
	$(GO) run ./cmd/dbrewd -smoke

# Coverage gate: the observability and differential-testing packages must
# each stay at >= 70% statement coverage.
COVER_PKGS = ./internal/trace ./internal/crosstest ./internal/opt
cover:
	@for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover $$pkg | tail -1); echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" 'BEGIN { print (p >= 70.0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then \
			echo "coverage for $$pkg is $$pct%, below the 70% gate"; exit 1; fi; \
	done

# Short live fuzz of the differential harness on top of the pinned corpus.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDifferential -fuzztime=30s ./internal/crosstest
