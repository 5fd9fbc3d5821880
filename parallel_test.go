package dbrewllvm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/codecache"
	"repro/internal/ir"
	"repro/internal/opt"
)

// TestDistinctKeysCompileConcurrently parks one compile inside DBrew (the
// poisoned-flags kernel fails there, and its error handler blocks) and
// requires a Rewrite of a different key to finish meanwhile: compiles of
// distinct keys do not wait on one another.
func TestDistinctKeysCompileConcurrently(t *testing.T) {
	e, dot, buf := cacheSetup(t)
	poisoned := buildPoisonedFlags(t, e)

	parked, release := make(chan struct{}), make(chan struct{})
	a := NewRewriter(e, poisoned, Sig(Int, Int))
	a.SetBackend(BackendLLVM)
	a.rw.ErrorHandler = func(error) bool {
		close(parked)
		<-release
		return false // fall back to the original function
	}
	type result struct {
		addr uint64
		err  error
	}
	aDone := make(chan result, 1)
	go func() {
		addr, err := a.Rewrite()
		aDone <- result{addr, err}
	}()
	<-parked

	b := newDotRewriter(e, dot, buf)
	bDone := make(chan result, 1)
	go func() {
		addr, err := b.Rewrite()
		bDone <- result{addr, err}
	}()
	var rb result
	select {
	case rb = <-bDone:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a distinct-key Rewrite did not finish while another compile was parked")
	}
	close(release)
	ra := <-aDone

	if ra.err != nil || rb.err != nil {
		t.Fatalf("errors: parked %v, concurrent %v", ra.err, rb.err)
	}
	if !a.Stats.Failed || ra.addr != poisoned {
		t.Fatalf("parked compile: failed %v, addr %#x; want the DBrew fallback to %#x", a.Stats.Failed, ra.addr, poisoned)
	}
	if got, err := e.Call(ra.addr, []uint64{7}, nil); err != nil || got != 22 {
		t.Fatalf("parked compile's code = %d (%v), want 22", got, err)
	}
	if got, err := e.CallF(rb.addr, []uint64{buf}, nil); err != nil || got != 4.5 {
		t.Fatalf("concurrent compile's code = %g (%v), want 4.5", got, err)
	}
	if n := e.CompileCount(); n != 2 {
		t.Fatalf("CompileCount = %d, want 2", n)
	}
}

// TestParallelCompileBattery runs 32 Rewrites of distinct keys, half per
// backend, with the disk level on, while two tiered handles promote in the
// background. Every key compiles exactly once, every compile is written
// through to disk, and every result computes what it should. Results run
// only after the goroutines join: machines on one Memory share its stack.
func TestParallelCompileBattery(t *testing.T) {
	e := NewEngine()
	e.EnableCache(64)
	if err := e.EnableDiskCache(t.TempDir(), 1<<24); err != nil {
		t.Fatal(err)
	}
	e.EnableTiering(TierConfig{Tier1Calls: 1, Tier2Calls: 2})
	dot := buildDot(t, e)
	addc := buildAddC(t, e)

	const rewrites = 32
	bufs := make([]uint64, rewrites)
	for g := range bufs {
		bufs[g] = e.Alloc(16, "coeffs")
		if err := e.Mem.WriteFloat64(bufs[g], float64(g)); err != nil {
			t.Fatal(err)
		}
		if err := e.Mem.WriteFloat64(bufs[g]+8, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	handles := make([]*TieredFunc, 2)
	for i := range handles {
		coeff := e.Alloc(8, "coeff")
		if err := e.Mem.WriteU(coeff, 8, uint64(1000*(i+1))); err != nil {
			t.Fatal(err)
		}
		r := NewRewriter(e, addc, Sig(Int, Ptr, Int))
		r.SetParPtr(0, coeff, 8)
		h, err := r.Tiered(fmt.Sprintf("addc%d", i))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	addrs := make([]uint64, rewrites)
	keys := make([]codecache.Key, rewrites)
	errs := make([]error, rewrites+len(handles))
	for g := 0; g < rewrites; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := NewRewriter(e, dot, Sig(F64, Ptr))
			r.SetParPtr(0, bufs[g], 16)
			if g%2 == 1 {
				r.SetBackend(BackendLLVM)
			}
			keys[g], _ = r.CacheKey()
			<-start
			addrs[g], errs[g] = r.Rewrite()
			if errs[g] == nil && r.Source != "compile" {
				errs[g] = fmt.Errorf("served from %q, want a compile", r.Source)
			}
		}(g)
	}
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *TieredFunc) {
			defer wg.Done()
			<-start
			for x := uint64(0); x < 16; x++ {
				got, err := h.Call([]uint64{0, x}, nil)
				if want := uint64(1000*(i+1)) + x; err == nil && got != want {
					err = fmt.Errorf("call %d at %v = %d, want %d", x, h.Level(), got, want)
				}
				if err != nil {
					errs[rewrites+i] = err
					return
				}
			}
		}(i, h)
	}
	close(start)
	wg.Wait()
	e.DrainTiering()

	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g, addr := range addrs {
		got, err := e.CallF(addr, []uint64{bufs[g]}, nil)
		if want := 2*float64(g) + 0.5; err != nil || got != want {
			t.Fatalf("rewrite %d = %g (%v), want %g", g, got, err, want)
		}
		if has, _ := e.DiskHas(keys[g]); !has {
			t.Fatalf("rewrite %d was not written through to disk", g)
		}
	}
	const promotions = 2 // per handle: tier 1 and tier 2, each compiled once
	for i, h := range handles {
		st := h.Stats()
		if st.Level != Tier2 || st.CompileErrors != 0 {
			t.Fatalf("handle %d: level %v, %d compile errors; want tier2, 0", i, st.Level, st.CompileErrors)
		}
		if got, err := h.Call([]uint64{0, 5}, nil); err != nil || got != uint64(1000*(i+1))+5 {
			t.Fatalf("handle %d at tier 2 = %d (%v)", i, got, err)
		}
	}
	if st, _ := e.CacheStats(); st.Misses != rewrites {
		t.Fatalf("cache misses = %d, want %d", st.Misses, rewrites)
	}
	if n, want := e.CompileCount(), int64(rewrites+promotions*len(handles)); n != want {
		t.Fatalf("CompileCount = %d, want %d", n, want)
	}
}

// TestOptimizedIRIndependentOfHistory lifts each Sec. VI kernel, fixes its
// stencil parameter through the always-inline wrapper (so the inliner names
// the values it copies) and optimizes at O3, twice in one process. The two
// texts must be identical: the names passes derive are numbered per
// function, not by what the process compiled before.
func TestOptimizedIRIndependentOfHistory(t *testing.T) {
	w, err := bench.NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Mem = w.Mem
	optimized := func(in bench.SpecInput) string {
		lr, err := e.Lift(in.Entry, "kernel", in.Sig)
		if err != nil {
			t.Fatal(err)
		}
		g := &ir.Global{Nam: "stencil_fixed", Ty: ir.I8, Addr: in.StencilAddr, Const: true}
		lr.Module.AddGlobal(g)
		wrap, err := opt.FixParam(lr.Module, lr.Func, 0, g)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(wrap, opt.O3())
		return ir.FormatFunc(wrap)
	}
	for _, kind := range []bench.Kind{bench.Element, bench.Line} {
		for _, s := range bench.AllStructures {
			in := w.SpecInput(kind, s, bench.Native)
			first, second := optimized(in), optimized(in)
			if !strings.Contains(first, "inl.") {
				t.Fatalf("%s_%s: no inlined value names to compare", s, kind)
			}
			if first != second {
				a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				t.Fatalf("%s_%s: the second optimization printed different IR from line %d on:\n%s",
					s, kind, i+1, strings.Join(b[i:], "\n"))
			}
		}
	}
}
