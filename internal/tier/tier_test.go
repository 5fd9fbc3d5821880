package tier

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/trace"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// placeAdd places position-independent code computing rdi+rsi and returns
// its entry. pad inserts extra no-op work so different "tiers" are
// distinguishable by address and instruction count.
func placeAdd(t *testing.T, mem *emu.Memory, name string, pad int) uint64 {
	t.Helper()
	b := asm.NewBuilder()
	for i := 0; i < pad; i++ {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
	}
	b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.Ret()
	code, _, err := b.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	r := mem.Alloc(len(code), 16, name)
	copy(r.Data, code)
	return r.Start
}

// testFunc registers an add function whose "compiles" place alternative add
// implementations, with per-level compile counters.
func testFunc(t *testing.T, mem *emu.Memory, mgr *Manager, counts *[NumLevels]atomic.Int64, delay time.Duration, ranges []Range) *Func {
	t.Helper()
	orig := placeAdd(t, mem, "orig", 8)
	f, err := mgr.Register(FuncSpec{
		Name:   "add",
		Entry:  orig,
		Ranges: ranges,
		Compile: func(target Level) (CompileResult, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			counts[target].Add(1)
			pad := 4
			if target == Tier2 {
				pad = 0
			}
			entry := placeAdd(t, mem, fmt.Sprintf("code.%v.%d", target, counts[target].Load()), pad)
			return CompileResult{Entry: entry, CodeSize: 16}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPromotionThresholds(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{Tier1Calls: 3, Tier2Calls: 6, Synchronous: true})
	var counts [NumLevels]atomic.Int64
	f := testFunc(t, mem, mgr, &counts, 0, nil)

	wantLevel := func(call int, want Level) {
		t.Helper()
		if got := f.Level(); got != want {
			t.Fatalf("after call %d: level = %v, want %v", call, got, want)
		}
	}
	for i := 1; i <= 10; i++ {
		got, err := f.Call([]uint64{10, uint64(i)}, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != 10+uint64(i) {
			t.Fatalf("call %d: got %d, want %d", i, got, 10+uint64(i))
		}
		switch {
		case i < 3:
			wantLevel(i, Tier0)
		case i < 6:
			wantLevel(i, Tier1)
		default:
			wantLevel(i, Tier2)
		}
	}
	if c1, c2 := counts[Tier1].Load(), counts[Tier2].Load(); c1 != 1 || c2 != 1 {
		t.Fatalf("compiles = %d/%d, want 1/1", c1, c2)
	}
	st := f.Stats()
	if st.Promotions[Tier1] != 1 || st.Promotions[Tier2] != 1 {
		t.Fatalf("promotions = %v, want one each", st.Promotions)
	}
	if st.Calls != 10 || st.Cycles == 0 {
		t.Fatalf("stats calls=%d cycles=%d", st.Calls, st.Cycles)
	}
	if st.CompileLatency.Count() != 2 {
		t.Fatalf("latency histogram count = %d, want 2", st.CompileLatency.Count())
	}
}

func TestFixedArgOverride(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	orig := placeAdd(t, mem, "orig", 0)
	f, err := mgr.Register(FuncSpec{
		Entry: orig,
		Fixed: []FixedArg{{Idx: 1, Val: 100}},
		Compile: func(target Level) (CompileResult, error) {
			return CompileResult{Entry: placeAdd(t, mem, "promoted", 2)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		// The caller's second argument must be overridden with 100 at
		// every tier.
		got, err := f.Call([]uint64{7, 9999}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != 107 {
			t.Fatalf("call %d: got %d, want 107 (fixed arg ignored?)", i, got)
		}
	}
}

func TestDeoptAndRepromotion(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	buf := mem.Alloc(16, 16, "fixedregion")
	mgr := NewManager(mem, Config{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	var counts [NumLevels]atomic.Int64
	f := testFunc(t, mem, mgr, &counts, 0, []Range{{Start: buf.Start, End: buf.End()}})

	for i := 0; i < 5; i++ {
		if _, err := f.Call([]uint64{1, 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Level() != Tier2 {
		t.Fatalf("level = %v, want tier2", f.Level())
	}

	// A non-overlapping invalidation must not deopt.
	if n := mgr.Invalidate(buf.End()+100, buf.End()+200); n != 0 {
		t.Fatalf("non-overlapping invalidate deopted %d functions", n)
	}
	if f.Level() != Tier2 {
		t.Fatalf("level after unrelated invalidate = %v", f.Level())
	}

	// Mutate the fixed region and invalidate: back to tier 0, counters
	// reset, and hotness re-promotes over the (conceptually new) contents.
	mem.WriteU(buf.Start, 8, 42)
	if n := mgr.Invalidate(buf.Start, buf.Start+8); n != 1 {
		t.Fatalf("invalidate deopted %d functions, want 1", n)
	}
	if f.Level() != Tier0 {
		t.Fatalf("level after invalidate = %v, want tier0", f.Level())
	}
	st := f.Stats()
	if st.Deopts != 1 || st.Calls != 0 {
		t.Fatalf("after deopt: deopts=%d calls=%d", st.Deopts, st.Calls)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Call([]uint64{1, 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Level() != Tier2 {
		t.Fatalf("no re-promotion after deopt: level = %v", f.Level())
	}
	// Contents changed, so re-promotion must have recompiled rather than
	// reusing the pre-invalidation cache entries.
	if c2 := counts[Tier2].Load(); c2 != 2 {
		t.Fatalf("tier2 compiles after deopt = %d, want 2", c2)
	}
}

func TestFailedCompileStaysPutAndDoesNotRetry(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{Tier1Calls: 2, Tier2Calls: 1 << 60, Synchronous: true})
	orig := placeAdd(t, mem, "orig", 0)
	var attempts atomic.Int64
	f, err := mgr.Register(FuncSpec{
		Entry: orig,
		Compile: func(target Level) (CompileResult, error) {
			attempts.Add(1)
			return CompileResult{}, fmt.Errorf("synthetic failure")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := f.Call([]uint64{3, 4}, nil)
		if err != nil || got != 7 {
			t.Fatalf("call %d: got %d, err %v", i, got, err)
		}
	}
	if f.Level() != Tier0 {
		t.Fatalf("level = %v, want tier0 after failed compiles", f.Level())
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("compile attempted %d times, want exactly 1 (no retry storm)", n)
	}
	if st := f.Stats(); st.CompileErrors != 1 {
		t.Fatalf("CompileErrors = %d, want 1", st.CompileErrors)
	}
}

func TestTimeInTierAccounting(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{Tier1Calls: 1 << 60, Tier2Calls: 2, Synchronous: true})
	var counts [NumLevels]atomic.Int64
	f := testFunc(t, mem, mgr, &counts, 0, nil)
	if _, err := f.Call([]uint64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := f.Call([]uint64{1, 1}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	st := f.Stats()
	if st.Level != Tier2 {
		t.Fatalf("level = %v (direct 0->2 jump expected)", st.Level)
	}
	if st.TimeInTier[Tier0] <= 0 || st.TimeInTier[Tier2] <= 0 {
		t.Fatalf("time-in-tier not accounted: %v", st.TimeInTier)
	}
	if st.TimeInTier[Tier1] != 0 {
		t.Fatalf("tier1 was never active but has residency %v", st.TimeInTier[Tier1])
	}
}

// TestConcurrentPromotionCompilesOnce is the exactly-once guarantee under
// contention: 32 goroutines hammer one handle through both thresholds, and
// the tier-2 pipeline must compile exactly once (singleflight + in-flight
// dedup), observable both in the compile cache counters and the promotion
// counters. Run under -race (make check does).
func TestConcurrentPromotionCompilesOnce(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{Tier1Calls: 8, Tier2Calls: 64})
	var counts [NumLevels]atomic.Int64
	// A compile delay widens the race window: many goroutines cross the
	// threshold while the first compile is still in flight.
	f := testFunc(t, mem, mgr, &counts, 2*time.Millisecond, nil)

	const goroutines = 32
	const callsPer = 32
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				got, err := f.Call([]uint64{uint64(g), uint64(i)}, nil)
				if err != nil {
					errs[g] = err
					return
				}
				if got != uint64(g)+uint64(i) {
					errs[g] = fmt.Errorf("got %d, want %d", got, g+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	mgr.Drain()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	if c2 := counts[Tier2].Load(); c2 != 1 {
		t.Fatalf("tier2 compiled %d times, want exactly 1", c2)
	}
	if c1 := counts[Tier1].Load(); c1 > 1 {
		t.Fatalf("tier1 compiled %d times, want at most 1", c1)
	}
	st := f.Stats()
	if st.Promotions[Tier2] != 1 {
		t.Fatalf("tier2 promotions = %d, want 1", st.Promotions[Tier2])
	}
	if st.Level != Tier2 {
		t.Fatalf("final level = %v, want tier2", st.Level)
	}
	if st.Calls != goroutines*callsPer {
		t.Fatalf("calls = %d, want %d", st.Calls, goroutines*callsPer)
	}
	cs := mgr.CacheStats()
	wantMisses := counts[Tier1].Load() + counts[Tier2].Load()
	if cs.Misses != wantMisses {
		t.Fatalf("cache misses = %d, want %d (one per compiled level)", cs.Misses, wantMisses)
	}
}

func TestRegisterValidation(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{})
	if _, err := mgr.Register(FuncSpec{Entry: 0, Compile: func(Level) (CompileResult, error) { return CompileResult{}, nil }}); err == nil {
		t.Fatal("zero entry accepted")
	}
	if _, err := mgr.Register(FuncSpec{Entry: 0x1000}); err == nil {
		t.Fatal("nil compile accepted")
	}
}

// TestFastpathDeoptDiscardsInFlightCompile pins the generation-counter
// contract the fastpath tier-1 backend depends on: when a function is
// deoptimized while its (fast, but still asynchronous) tier-1 compile is in
// flight, the arriving result must be discarded, not installed over the
// freshly invalidated state. Run under -race via `make race-fastpath`.
func TestFastpathDeoptDiscardsInFlightCompile(t *testing.T) {
	mem := emu.NewMemory(0x1000000)
	mgr := NewManager(mem, Config{Tier1Calls: 2, Tier2Calls: 1 << 62})
	fixed := mem.Alloc(16, 8, "fixed")

	started := make(chan struct{})
	var startedOnce sync.Once
	release := make(chan struct{})
	var compiles atomic.Int64
	orig := placeAdd(t, mem, "orig", 8)
	f, err := mgr.Register(FuncSpec{
		Name:   "add",
		Entry:  orig,
		Ranges: []Range{{Start: fixed.Start, End: fixed.End()}},
		Compile: func(target Level) (CompileResult, error) {
			startedOnce.Do(func() { close(started) })
			<-release
			n := compiles.Add(1)
			entry := placeAdd(t, mem, fmt.Sprintf("code.%v.%d", target, n), 4)
			return CompileResult{Entry: entry, CodeSize: 16}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Cross the tier-1 threshold; the background compile parks on release.
	for i := 0; i < 2; i++ {
		if _, err := f.Call([]uint64{1, uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	<-started

	// Deoptimize mid-compile, then let the stale result arrive: it must be
	// discarded, leaving the function at tier 0 with zero installs.
	if n := mgr.Invalidate(fixed.Start, fixed.End()); n != 1 {
		t.Fatalf("Invalidate deoptimized %d funcs, want 1", n)
	}
	close(release)
	mgr.Drain()

	st := f.Stats()
	if st.Promotions[Tier1] != 0 {
		t.Fatalf("stale tier-1 result was installed (promotions = %d)", st.Promotions[Tier1])
	}
	if compiles.Load() != 1 {
		t.Fatalf("compiles = %d, want 1", compiles.Load())
	}
	if got := f.Level(); got != Tier0 {
		t.Fatalf("level after discarded compile = %v, want tier0", got)
	}

	// The handle still works and re-promotes over the new state; racing
	// dispatchers against the second promotion install is the -race payoff.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := f.Call([]uint64{10, 20}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got != 30 {
					t.Errorf("call after deopt = %d, want 30", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	mgr.Drain()
	if got := f.Level(); got != Tier1 {
		t.Fatalf("level after re-promotion = %v, want tier1", got)
	}
}

// TestMetricsExportAbortReasons: the trace tier's abort count is exported in
// total (as before) and once per typed reason, in lint-clean exposition text.
func TestMetricsExportAbortReasons(t *testing.T) {
	var st Stats
	st.Trace.Aborted = 7
	st.Trace.AbortedBy[emu.AbortCall] = 4
	st.Trace.AbortedBy[emu.AbortUnsupportedOp] = 2
	st.Trace.AbortedBy[emu.AbortNoProgress] = 1
	reg := trace.NewRegistry()
	RegisterMetrics(reg, "dbrew_tier", func() (Stats, bool) { return st, true })
	out := reg.Text()
	if err := trace.Lint([]byte(out)); err != nil {
		t.Fatalf("registry output fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"dbrew_tier_traces_aborted_total 7",
		"dbrew_tier_traces_aborted_call_total 4",
		"dbrew_tier_traces_aborted_ret_total 0",
		"dbrew_tier_traces_aborted_unsupported_op_total 2",
		"dbrew_tier_traces_aborted_no_progress_total 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("registry output missing %q:\n%s", want, out)
		}
	}
}
