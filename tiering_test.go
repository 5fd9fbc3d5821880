package dbrewllvm

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// buildAddC places f(p, x) = *(int64*)p + x: a load from the first
// (pointer) parameter plus the second parameter. With SetParPtr fixing p to
// a constant buffer, tier 2 folds the load into an immediate.
func buildAddC(t testing.TB, e *Engine) uint64 {
	t.Helper()
	b := asm.NewBuilder()
	b.I(x86.MOV, x86.R64(x86.RAX), x86.MemBD(8, x86.RDI, 0))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.Ret()
	code, _, err := b.Assemble(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	return e.PlaceCode(code, "addc")
}

func tieringSetup(t *testing.T, cfg TierConfig) (e *Engine, h *TieredFunc, buf uint64) {
	t.Helper()
	e = NewEngine()
	e.EnableTiering(cfg)
	buf = e.Alloc(8, "coeff")
	if err := e.Mem.WriteU(buf, 8, 1000); err != nil {
		t.Fatal(err)
	}
	fn := buildAddC(t, e)
	r := NewRewriter(e, fn, Sig(Int, Ptr, Int))
	r.SetParPtr(0, buf, 8)
	h, err := r.Tiered("addc")
	if err != nil {
		t.Fatal(err)
	}
	return e, h, buf
}

// TestTieredPromotionSemantics drives a handle through all three tiers and
// checks every call returns the specialized result, regardless of which
// tier executed it and regardless of the caller's value for the fixed
// pointer argument.
func TestTieredPromotionSemantics(t *testing.T) {
	_, h, _ := tieringSetup(t, TierConfig{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	for i := uint64(1); i <= 8; i++ {
		// Arg 0 is garbage on purpose: the dispatcher must pin it to buf.
		got, err := h.Call([]uint64{0xDEADBEEF, i}, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != 1000+i {
			t.Fatalf("call %d (at %v): got %d, want %d", i, h.Level(), got, 1000+i)
		}
	}
	if h.Level() != Tier2 {
		t.Fatalf("final level = %v, want tier2", h.Level())
	}
	st := h.Stats()
	if st.Promotions[Tier1] != 1 || st.Promotions[Tier2] != 1 {
		t.Fatalf("promotions = %v, want exactly one per tier", st.Promotions)
	}
	if st.CodeSize == 0 {
		t.Fatal("installed tier2 code has zero size")
	}
}

// TestTieredDeoptOnInvalidate mutates the fixed region, invalidates, and
// checks the handle deoptimizes to tier 0 (new contents visible
// immediately) and then re-promotes to code specialized on the new value.
func TestTieredDeoptOnInvalidate(t *testing.T) {
	e, h, buf := tieringSetup(t, TierConfig{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	for i := uint64(1); i <= 6; i++ {
		if _, err := h.Call([]uint64{0, i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h.Level() != Tier2 {
		t.Fatalf("level = %v, want tier2 before invalidation", h.Level())
	}

	if err := e.Mem.WriteU(buf, 8, 7777); err != nil {
		t.Fatal(err)
	}
	if n := e.InvalidateRange(buf, buf+8); n != 1 {
		t.Fatalf("InvalidateRange deoptimized %d functions, want 1", n)
	}
	if h.Level() != Tier0 {
		t.Fatalf("level = %v after invalidation, want tier0", h.Level())
	}

	for i := uint64(1); i <= 8; i++ {
		got, err := h.Call([]uint64{0, i}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != 7777+i {
			t.Fatalf("call %d (at %v) after deopt: got %d, want %d", i, h.Level(), got, 7777+i)
		}
	}
	if h.Level() != Tier2 {
		t.Fatalf("no re-promotion after deopt: level = %v", h.Level())
	}
	st := h.Stats()
	if st.Deopts != 1 {
		t.Fatalf("deopts = %d, want 1", st.Deopts)
	}
	if st.Promotions[Tier2] != 2 {
		t.Fatalf("tier2 promotions = %d, want 2 (one per generation)", st.Promotions[Tier2])
	}
}

// TestTieredBackgroundPromotion exercises the default asynchronous mode:
// promotions land eventually (DrainTiering) and never break results.
func TestTieredBackgroundPromotion(t *testing.T) {
	e, h, _ := tieringSetup(t, TierConfig{Tier1Calls: 2, Tier2Calls: 4})
	for i := uint64(1); i <= 64; i++ {
		got, err := h.Call([]uint64{0, i}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1000+i {
			t.Fatalf("call %d: got %d, want %d", i, got, 1000+i)
		}
	}
	e.DrainTiering()
	if h.Level() != Tier2 {
		t.Fatalf("level after drain = %v, want tier2", h.Level())
	}
	got, err := h.Call([]uint64{0, 5}, nil)
	if err != nil || got != 1005 {
		t.Fatalf("tier2 call: got %d, err %v", got, err)
	}
}

// TestTierStatsSentinel mirrors the CacheStats contract: zero Stats and
// ok == false while tiering is disabled.
func TestTierStatsSentinel(t *testing.T) {
	e := NewEngine()
	if st, ok := e.TierStats(); ok || len(st.Funcs) != 0 {
		t.Fatalf("TierStats on disabled tiering = (%v, %v), want zero/false", st, ok)
	}
	if e.TieringEnabled() {
		t.Fatal("TieringEnabled true before EnableTiering")
	}
	if n := e.InvalidateRange(0, 1<<40); n != 0 {
		t.Fatalf("InvalidateRange without tiering deopted %d", n)
	}
	fn := buildAddC(t, e)
	r := NewRewriter(e, fn, Sig(Int, Ptr, Int))
	if _, err := r.Tiered("addc"); err != ErrTieringDisabled {
		t.Fatalf("Tiered without EnableTiering: err = %v, want ErrTieringDisabled", err)
	}

	e.EnableTiering(TierConfig{})
	if _, err := r.Tiered("addc"); err != nil {
		t.Fatal(err)
	}
	st, ok := e.TierStats()
	if !ok || len(st.Funcs) != 1 || st.Funcs[0].Level != Tier0 {
		t.Fatalf("TierStats after register = (%+v, %v)", st, ok)
	}
	if st.String() == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestTieredDeoptOnInvalidateAtTier1 is TestTieredDeoptOnInvalidate for a
// handle parked at tier 1: DBrew's tier-1 code folds the fixed region as
// tier 2 does, so mutating it must deoptimize and re-promote over the new
// contents.
func TestTieredDeoptOnInvalidateAtTier1(t *testing.T) {
	// Tier2Calls is out of reach: tier 1 is the top of this handle's climb.
	e, h, buf := tieringSetup(t, TierConfig{Tier1Calls: 2, Tier2Calls: 1 << 62, Synchronous: true})
	for i := uint64(1); i <= 4; i++ {
		if _, err := h.Call([]uint64{0, i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h.Level() != Tier1 {
		t.Fatalf("level = %v, want tier1 before invalidation", h.Level())
	}

	if err := e.Mem.WriteU(buf, 8, 7777); err != nil {
		t.Fatal(err)
	}
	if n := e.InvalidateRange(buf, buf+8); n != 1 {
		t.Fatalf("InvalidateRange deoptimized %d functions, want 1", n)
	}
	var seen [3]int
	for i := uint64(1); i <= 8; i++ {
		level := h.Level()
		got, err := h.Call([]uint64{0, i}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != 7777+i {
			t.Fatalf("call %d (at %v) after deopt: got %d, want %d", i, level, got, 7777+i)
		}
		seen[level]++
	}
	if seen[Tier0] == 0 || seen[Tier1] == 0 || seen[Tier2] != 0 {
		t.Fatalf("calls per tier after deopt = %v, want some at tier 0 and tier 1 only", seen)
	}
	st := h.Stats()
	if st.Deopts != 1 || st.Promotions[Tier1] != 2 {
		t.Fatalf("deopts = %d, tier1 promotions = %d; want 1 and 2 (one per generation)",
			st.Deopts, st.Promotions[Tier1])
	}
}

// buildPoisonedFlags places f(x) = 15 + x, computed through a branch on the
// zero flag of an imul with constant inputs. DBrew eliminates the imul and
// then refuses to branch on its flags (undefined on x86), so it falls back
// to the original code; the lifter handles the function.
func buildPoisonedFlags(t testing.TB, e *Engine) uint64 {
	t.Helper()
	b := asm.NewBuilder()
	skip := b.NewLabel()
	b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(3, 8))
	b.I(x86.IMUL3, x86.R64(x86.RAX), x86.R64(x86.RAX), x86.Imm(5, 8))
	b.Jcc(x86.CondE, skip)
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDI))
	b.Bind(skip)
	b.Ret()
	code, _, err := b.Assemble(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	return e.PlaceCode(code, "poisoned")
}

// TestTieredTier1DBrewFallback: a DBrew fallback is a failed tier-1
// compile, not a promotion to the original code. The handle stays at
// tier 0 and promotes straight to tier 2, which optimizes the original.
func TestTieredTier1DBrewFallback(t *testing.T) {
	e := NewEngine()
	e.EnableTiering(TierConfig{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	fn := buildPoisonedFlags(t, e)
	h, err := NewRewriter(e, fn, Sig(Int, Int)).Tiered("poisoned")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 8; i++ {
		got, err := h.Call([]uint64{i}, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != 15+i {
			t.Fatalf("call %d (at %v): got %d, want %d", i, h.Level(), got, 15+i)
		}
	}
	st := h.Stats()
	if st.Level != Tier2 || st.CompileErrors != 1 || st.Promotions != [3]uint64{0, 0, 1} {
		t.Fatalf("level %v, compile errors %d, promotions %v; want tier2, 1, [0 0 1]",
			st.Level, st.CompileErrors, st.Promotions)
	}
}

// TestTieredTier1IsDBrew parks each of the six Sec. VI kernels at tier 1
// and checks that the tier is DBrew's specialization: (a) its code is
// byte-identical to a one-shot BackendDBrew Rewrite of the same
// configuration, (b) it computes what stencil.Apply does, and (c) it costs
// fewer modelled cycles than tier 0: at most 1.05x on any kernel and at
// most 0.65x in the geomean over the six.
func TestTieredTier1IsDBrew(t *testing.T) {
	w, err := bench.NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Mem = w.Mem
	e.EnableTiering(TierConfig{Tier1Calls: 1, Tier2Calls: 1 << 62, Synchronous: true})
	ref := w.M1.Slice()
	n := w.SZ - 2
	logSum := 0.0
	for _, kind := range []bench.Kind{bench.Element, bench.Line} {
		for _, s := range bench.AllStructures {
			name := fmt.Sprintf("%s_%s", s, kind)
			in := w.SpecInput(kind, s, bench.Native)
			rewriter := func() *Rewriter {
				r := NewRewriter(e, in.Entry, in.Sig)
				r.SetParPtr(0, in.StencilAddr, in.StencilSize)
				return r
			}
			// The cells of one interior row: one call per cell for the
			// element kernel, one call for the whole row for the line kernel.
			calls := func(row int) [][]uint64 {
				args := []uint64{in.StencilAddr, w.M1.Region.Start, w.M2.Region.Start, uint64(row*w.SZ + 1)}
				if kind == bench.Line {
					return [][]uint64{append(args, uint64(n))}
				}
				var out [][]uint64
				for col := 0; col < n; col++ {
					cell := append([]uint64(nil), args...)
					cell[3] += uint64(col)
					out = append(out, cell)
				}
				return out
			}

			h, err := rewriter().Tiered(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Call(calls(1)[0], nil); err != nil {
				t.Fatalf("%s: tier-0 call: %v", name, err)
			}
			st := h.Stats()
			if st.Level != Tier1 {
				t.Fatalf("%s: level %v (compile errors %d), want tier1", name, st.Level, st.CompileErrors)
			}

			// (a) The same bytes as the one-shot DBrew backend.
			r := rewriter()
			r.SetBackend(BackendDBrew)
			one, err := r.Rewrite()
			if err != nil || r.Stats.Failed {
				t.Fatalf("%s: one-shot DBrew rewrite: %v (failed %v)", name, err, r.Stats.Failed)
			}
			got, err1 := e.Mem.Read(st.Entry, st.CodeSize)
			want, err2 := e.Mem.Read(one, r.CodeSize)
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: tier-1 code (%d bytes) differs from the one-shot DBrew rewrite (%d bytes)",
					name, st.CodeSize, r.CodeSize)
			}

			// (b) Every cell of row 2, computed at tier 1.
			clear(w.M2.Region.Data)
			for _, args := range calls(2) {
				if _, err := h.Call(args, nil); err != nil {
					t.Fatalf("%s: tier-1 call: %v", name, err)
				}
			}
			for col := 1; col <= n; col++ {
				want := w.Stencil.Apply(ref, w.SZ, 2*w.SZ+col)
				if got := w.M2.Get(2, col); math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s: cell (2,%d) = %g, want %g", name, col, got, want)
				}
			}

			// (c) Modelled cycles of one call, tier 1 over tier 0.
			args := calls(3)[0]
			_, c1, _, err := e.Measure(h.Entry(), args, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, c0, _, err := e.Measure(in.Entry, args, nil)
			if err != nil {
				t.Fatal(err)
			}
			ratio := c1 / c0
			t.Logf("%s: tier 1 / tier 0 modelled cycles = %.3f", name, ratio)
			if ratio > 1.05 {
				t.Errorf("%s: tier-1 code costs %.3fx tier 0, want at most 1.05x", name, ratio)
			}
			logSum += math.Log(ratio)
		}
	}
	if g := math.Exp(logSum / 6); g > 0.65 {
		t.Errorf("tier 1 / tier 0 geomean = %.3f, want at most 0.65", g)
	} else {
		t.Logf("tier 1 / tier 0 geomean = %.3f", g)
	}
}

// TestTieredPromotionsCountCompiles pins Engine.CompileCount's contract for
// tiering: each promotion that compiles is one pipeline execution, so a
// handle promoted to tier 2 adds exactly 2. Handles never share compiled
// tiers, so a second handle over the same configuration adds its own 2.
func TestTieredPromotionsCountCompiles(t *testing.T) {
	e := NewEngine()
	e.EnableTiering(TierConfig{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	buf := e.Alloc(8, "coeff")
	if err := e.Mem.WriteU(buf, 8, 1000); err != nil {
		t.Fatal(err)
	}
	fn := buildAddC(t, e)
	promote := func(name string) {
		t.Helper()
		r := NewRewriter(e, fn, Sig(Int, Ptr, Int))
		r.SetParPtr(0, buf, 8)
		h, err := r.Tiered(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 6; i++ {
			if got, err := h.Call([]uint64{0, i}, nil); err != nil || got != 1000+i {
				t.Fatalf("call %d at %v: got %d, %v; want %d", i, h.Level(), got, err, 1000+i)
			}
		}
		if h.Level() != Tier2 {
			t.Fatalf("level = %v, want tier2", h.Level())
		}
	}
	promote("addc")
	if n := e.CompileCount(); n != 2 {
		t.Fatalf("CompileCount after promotion to tier 2 = %d, want 2", n)
	}
	promote("addc.again")
	if n := e.CompileCount(); n != 4 {
		t.Fatalf("CompileCount after a second handle's promotions = %d, want 4", n)
	}
}

// TestTieredHandlesKeepTheirOwnConfig: two handles over one function that
// differ only in FastMath must each run code compiled for their own
// configuration. f(x) = x * 0.0 folds to +0 under fast-math, but the strict
// handle must keep IEEE semantics and return -0 for x = -1, even when the
// fast-math handle reached tier 2 first on the same engine.
func TestTieredHandlesKeepTheirOwnConfig(t *testing.T) {
	b := asm.NewBuilder()
	b.I(x86.PXOR, x86.X(x86.XMM1), x86.X(x86.XMM1))
	b.I(x86.MULSD, x86.X(x86.XMM0), x86.X(x86.XMM1))
	b.Ret()
	code, _, err := b.Assemble(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.EnableTiering(TierConfig{Tier1Calls: 2, Tier2Calls: 4, Synchronous: true})
	fn := e.PlaceCode(code, "mulzero")
	promote := func(name string, fastMath bool) *TieredFunc {
		t.Helper()
		r := NewRewriter(e, fn, Sig(F64, F64))
		r.FastMath = fastMath
		h, err := r.Tiered(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := h.CallF(nil, []float64{1}); err != nil {
				t.Fatal(err)
			}
		}
		if h.Level() != Tier2 {
			t.Fatalf("%s: level = %v, want tier2", name, h.Level())
		}
		return h
	}
	// The premise: fast-math tier 2 folds the product to +0.
	fast := promote("fast", true)
	if got, err := fast.CallF(nil, []float64{-1}); err != nil || got != 0 || math.Signbit(got) {
		t.Fatalf("fast-math handle at tier 2: -1 * 0.0 = %v, %v; want +0", got, err)
	}
	strict := promote("strict", false)
	got, err := strict.CallF(nil, []float64{-1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 || !math.Signbit(got) {
		t.Fatalf("strict handle at tier 2: -1 * 0.0 = %v (signbit %v), want -0", got, math.Signbit(got))
	}
}
