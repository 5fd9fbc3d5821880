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
# -count=1 so the concurrency-sensitive package is re-exercised every gate,
# plus the root package's tiering tests, which hold the promotion contract
# through Rewriter.Tiered.
race-tiering:
	$(GO) test -race -count=1 ./internal/tier/...
	$(GO) test -race -count=1 -run 'Tiered|TierStats' .

# dbrewd end-to-end suite (coalescing, admission control, shutdown drain),
# the cache singleflight races, the engine's parallel-compile battery and
# its disk-hit placement reuse, re-run fresh under the race detector.
race-service:
	$(GO) test -race -count=1 ./internal/service/... ./internal/codecache/...
	$(GO) test -race -count=1 -run 'Concurrent|Parallel|DiskHit' .

# Fastpath baseline backend: the package suite plus the pinned copy-shortcut
# seeds, and dbrewd's deadline strategy (which shares the name), fresh under
# the race detector.
race-fastpath:
	$(GO) test -race -count=1 ./internal/fastpath/...
	$(GO) test -race -count=1 -run 'Fastpath' ./internal/service ./internal/crosstest

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
# kernels on all four engines plus their trace-engagement pin. TestTraceCall
# is the battery of traces through calls and returns, and the crosstest
# call-loop sweep and corpus pin run the generated call loops through them.
# TestTracePacked is the packed SSE2 battery (16-byte accesses, penalties
# logged in the trace and charged after it), and the crosstest packed-loop
# sweep and corpus pin run the generated packed loops through it.
# On hosts without the native backend the same tests run the traces on the VM.
race-trace-native:
	$(GO) test -race -count=1 -run 'TestTraceNative|TestTraceLink|TestTracePoly|TestTraceReanchor|TestTraceAbortReasons|TestTraceCall|TestTracePacked' ./internal/jit
	$(GO) test -race -count=1 -run 'TestTraceNativeFP' ./internal/bench
	$(GO) test -race -count=1 -run 'TestDifferentialCallLoop|TestFuzzCorpusEngagesCallTraces' ./internal/crosstest
	$(GO) test -race -count=1 -run 'TestDifferentialPackedLoop|TestFuzzCorpusEngagesPackedTraces' ./internal/crosstest

# Persistence + fleet suite fresh under the race detector: two in-process
# nodes, 32 concurrent identical requests, the exactly-one-compile
# assertion, warm restarts, eviction broadcasts, and peer degradation —
# plus the disk store's crash/corruption battery, with and without a
# compaction racing the traffic.
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
# each stay at >= 70% statement coverage. The lifter is gated too, counting
# the statements of ./internal/lift that its own tests, the differential
# harness and the kernel IR goldens reach together.
COVER_PKGS = ./internal/trace ./internal/crosstest ./internal/opt
LIFT_COVER_TESTS = ./internal/lift ./internal/crosstest ./internal/stencil
cover:
	@for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover $$pkg | tail -1); echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" 'BEGIN { print (p >= 70.0) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then \
			echo "coverage for $$pkg is $$pct%, below the 70% gate"; exit 1; fi; \
	done
	@prof=$$(mktemp); trap 'rm -f "$$prof"' EXIT; \
	$(GO) test -coverpkg=./internal/lift -coverprofile="$$prof" $(LIFT_COVER_TESTS) >/dev/null || exit 1; \
	pct=$$($(GO) tool cover -func="$$prof" | sed -n 's/^total:.*[[:space:]]\([0-9.]*\)%$$/\1/p'); \
	echo "./internal/lift (with $(LIFT_COVER_TESTS)) coverage: $$pct%"; \
	if [ -z "$$pct" ]; then echo "no coverage reported for ./internal/lift"; exit 1; fi; \
	ok=$$(awk -v p="$$pct" 'BEGIN { print (p >= 70.0) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage for ./internal/lift is $$pct%, below the 70% gate"; exit 1; fi

# Short live fuzz of the differential harness on top of the pinned corpus,
# of the assembler's layout and placement against a direct encoding, of
# the artifact store's Open and Get over arbitrary segment bytes, of the
# trace tier's per-binade cycle replay against the step-by-step sum, of
# DBrew's constant folding of integer instructions against the interpreter,
# of one SSE instruction on the block engine against the interpreter, and
# of one flag writer leaving a traced loop against the interpreter.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDifferential -fuzztime=30s ./internal/crosstest
	$(GO) test -run='^$$' -fuzz=FuzzLayoutPlace -fuzztime=10s ./internal/x86/asm
	$(GO) test -run='^$$' -fuzz=FuzzStoreOpen -fuzztime=10s ./internal/diskcache
	$(GO) test -run='^$$' -fuzz=FuzzReplayIters -fuzztime=10s ./internal/emu
	$(GO) test -run='^$$' -fuzz=FuzzFoldMatchesInterp -fuzztime=10s ./internal/dbrew
	$(GO) test -run='^$$' -fuzz=FuzzSSEEngines -fuzztime=10s ./internal/emu
	$(GO) test -run='^$$' -fuzz=FuzzTraceExitFlags -fuzztime=10s ./internal/jit
