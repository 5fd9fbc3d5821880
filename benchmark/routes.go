package main

import (
	"errors"
	"fmt"

	dbrewllvm "repro"
	"repro/internal/abi"
	"repro/internal/dbrew"
	"repro/internal/emu"
	"repro/internal/fastpath"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/lift"
	"repro/internal/opt"
	"repro/internal/x86"
)

// fixedPtr is a pointer parameter known at rewrite time, the Sec. VI stencil
// pointer: parameter 0 points at size fixed bytes, of which the first header
// bytes are what an IR-level constant-memory declaration sees (llvm_fix does
// not follow nested pointers).
type fixedPtr struct {
	addr         uint64
	size, header int
}

// target is one input program of the compile routes.
type target struct {
	row string
	eng *dbrewllvm.Engine
	// entry is the code as the compiler produced it (llvm, llvm_fix and
	// fastpath compile it); spec is what DBrew specializes — the call-based
	// line kernels for Sec. VI, as in the paper, otherwise entry itself.
	entry, spec uint64
	sig         abi.Signature
	fix         *fixedPtr
	// declare registers call targets with a lifter, so kernels that call
	// an element function lift.
	declare func(*lift.Lifter)
}

func (t *target) lifter() *lift.Lifter {
	l := lift.New(t.eng.Mem, lift.DefaultOptions())
	if t.declare != nil {
		t.declare(l)
	}
	return l
}

// compiled is the output of one route.
type compiled struct {
	entry uint64
	bytes int
	// dropFixed: the code takes the original arguments minus the fixed
	// pointer (llvm_fix wraps the function with parameter 0 bound).
	dropFixed bool
}

// layerCounts are the work counts of one pass over a workload's rows, taken
// at the layer boundaries the routes already cross. They repeat exactly for a
// given program set; a nil *layerCounts records nothing.
type layerCounts struct {
	x86Insts                                    int
	dbrewEmitted, dbrewEliminated, dbrewFell    int
	liftIRInsts                                 int
	optAfter, optRounds, optInlined, optUnrolld int
	jitBytes                                    int
	fpCopies, fpCompiles                        int
}

// opt adds one Optimize call; final marks the call whose output is compiled.
func (c *layerCounts) opt(st opt.Stats, final bool) {
	if c == nil {
		return
	}
	if final {
		c.optAfter += st.InstsAfter
	}
	c.optRounds += st.Rounds
	c.optInlined += st.Inlined
	c.optUnrolld += st.Unrolled
}

func (c *layerCounts) dbrew(st dbrew.Stats) {
	if c == nil {
		return
	}
	c.dbrewEmitted += st.Emitted
	c.dbrewEliminated += st.Eliminated
	if st.Failed {
		c.dbrewFell++
	}
}

var errFellBack = errors.New("dbrew fell back to the original function")

// compile runs one route over one target: the paper's Fig. 10 routes dbrew,
// llvm, llvm_fix and dbrew_llvm, and fastpath, the tier-1 backend. With a nil
// ctx nothing is recorded; otherwise every call into a layer is a span.
func compile(route string, t *target, ctx *opCtx, cnt *layerCounts) (compiled, error) {
	switch route {
	case "dbrew":
		return routeDBrew(t, ctx, cnt)
	case "llvm":
		return routeLLVM(t, false, ctx, cnt)
	case "llvm_fix":
		return routeLLVM(t, true, ctx, cnt)
	case "dbrew_llvm":
		if ctx == nil {
			return routeRewriter(t)
		}
		return routeDBrewLLVMStaged(t, ctx, cnt)
	case "fastpath":
		return routeFastpath(t, ctx, cnt)
	}
	return compiled{}, fmt.Errorf("unknown route %q", route)
}

func (t *target) dbrewRewriter() *dbrew.Rewriter {
	r := dbrew.NewRewriter(t.eng.Mem, t.spec, t.sig)
	if t.fix != nil {
		r.SetParPtr(0, t.fix.addr, t.fix.size)
	}
	return r
}

func routeDBrew(t *target, ctx *opCtx, cnt *layerCounts) (compiled, error) {
	r := t.dbrewRewriter()
	var addr uint64
	var err error
	ctx.span("dbrew.rewrite", func() { addr, err = r.Rewrite() })
	cnt.dbrew(r.Stats)
	if err != nil {
		return compiled{}, err
	}
	if r.Stats.Failed {
		return compiled{}, errFellBack
	}
	return compiled{entry: addr, bytes: r.Stats.CodeSize}, nil
}

// routeLLVM is the identity transformation lift → O3 → JIT, and with fix the
// Sec. IV parameter fixation at IR level: wrap with parameter 0 bound, then
// alternate constant-memory folding with the pipeline until nothing folds.
func routeLLVM(t *target, fix bool, ctx *opCtx, cnt *layerCounts) (compiled, error) {
	l := t.lifter()
	f, err := liftStage(l, t.entry, t.sig, ctx, cnt)
	if err != nil {
		return compiled{}, err
	}
	cfg := opt.O3()
	cfg.FastMath = true
	if !fix {
		ctx.span("opt.optimize", func() { cnt.opt(opt.Optimize(f, cfg), true) })
	} else {
		ctx.span("opt.fix", func() { f, err = fixAndOptimize(l, f, t, cfg, cnt) })
		if err != nil {
			return compiled{}, err
		}
	}
	out, err := jitStage(l, f, t, ctx, cnt)
	out.dropFixed = fix
	return out, err
}

func fixAndOptimize(l *lift.Lifter, f *ir.Func, t *target, cfg opt.Config, cnt *layerCounts) (*ir.Func, error) {
	g := &ir.Global{Nam: "stencil_fixed", Ty: ir.I8, Addr: t.fix.addr, Const: true}
	l.Module.AddGlobal(g)
	wrap, err := opt.FixParam(l.Module, f, 0, g)
	if err != nil {
		return nil, err
	}
	ranges := []opt.ConstRange{{Start: t.fix.addr, Size: t.fix.header}}
	st := opt.Optimize(wrap, cfg)
	for i := 0; i < 6; i++ {
		n, err := opt.GlobalizeConstMem(l.Module, wrap, t.eng.Mem, ranges)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		cnt.opt(st, false)
		st = opt.Optimize(wrap, cfg)
	}
	cnt.opt(st, true)
	return wrap, nil
}

func liftStage(l *lift.Lifter, entry uint64, sig abi.Signature, ctx *opCtx, cnt *layerCounts) (*ir.Func, error) {
	var f *ir.Func
	var err error
	ctx.span("lift.func", func() { f, err = l.LiftFunc(entry, "bench_fn", sig) })
	if err == nil && cnt != nil {
		cnt.liftIRInsts += f.NumInsts()
	}
	return f, err
}

func jitStage(l *lift.Lifter, f *ir.Func, t *target, ctx *opCtx, cnt *layerCounts) (compiled, error) {
	comp := jit.NewCompiler(t.eng.Mem)
	var addr uint64
	var err error
	ctx.span("jit.compile", func() { addr, err = comp.CompileModule(l.Module, f.Nam) })
	if err != nil {
		return compiled{}, err
	}
	if cnt != nil {
		cnt.jitBytes += comp.Sizes[addr]
	}
	return compiled{entry: addr, bytes: comp.Sizes[addr]}, nil
}

// rewriter configures the root Rewriter the way a library user would for
// this target: LLVM backend, errors instead of silent fallbacks.
func (t *target) rewriter() *dbrewllvm.Rewriter {
	r := dbrewllvm.NewRewriter(t.eng, t.spec, t.sig)
	r.SetBackend(dbrewllvm.BackendLLVM)
	r.Strict = true
	if t.fix != nil {
		r.SetParPtr(0, t.fix.addr, t.fix.size)
	}
	return r
}

// routeRewriter is dbrew_llvm as users call it: one Rewriter.Rewrite.
func routeRewriter(t *target) (compiled, error) {
	r := t.rewriter()
	addr, err := r.Rewrite()
	if err != nil {
		return compiled{}, err
	}
	return compiled{entry: addr, bytes: r.CodeSize}, nil
}

// routeDBrewLLVMStaged drives the stages Rewriter.Rewrite runs, one public
// call each, so each gets a span; engine.stage_sum_ratio checks the sum
// against the single call.
func routeDBrewLLVMStaged(t *target, ctx *opCtx, cnt *layerCounts) (compiled, error) {
	out, err := routeDBrew(t, ctx, cnt)
	if err != nil {
		return compiled{}, err
	}
	l := lift.New(t.eng.Mem, lift.DefaultOptions())
	f, err := liftStage(l, out.entry, t.sig, ctx, cnt)
	if err != nil {
		return compiled{}, err
	}
	cfg := opt.O3()
	cfg.FastMath = true
	ctx.span("opt.optimize", func() { cnt.opt(opt.Optimize(f, cfg), true) })
	return jitStage(l, f, t, ctx, cnt)
}

func routeFastpath(t *target, ctx *opCtx, cnt *layerCounts) (compiled, error) {
	var res *fastpath.Result
	var err error
	ctx.span("fastpath.compile", func() {
		res, err = fastpath.Compile(t.eng.Mem, t.entry, "bench_fn", t.sig, fastpath.Options{})
	})
	if err != nil {
		return compiled{}, err
	}
	if cnt != nil {
		cnt.fpCompiles++
		if res.Mode == fastpath.ModeCopy {
			cnt.fpCopies++
		}
	}
	return compiled{entry: res.Entry, bytes: res.CodeSize}, nil
}

// decodeSweep decodes the function at entry linearly to the end of its
// region, the x86 layer's work unit, and returns the instruction count.
func decodeSweep(mem *emu.Memory, entry uint64) (int, error) {
	code, err := mem.Tail(entry, 1<<16)
	if err != nil {
		return 0, err
	}
	n := 0
	for off := 0; off < len(code); {
		in, err := x86.Decode(code[off:], entry+uint64(off))
		if err != nil {
			return n, fmt.Errorf("decode at %#x: %w", entry+uint64(off), err)
		}
		off += in.Len
		n++
	}
	return n, nil
}
