package jit

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/lift"
	"repro/internal/opt"
)

// CompileTrace is the trace compiler the emulator's trace tier dispatches
// to: lift the recorded superblock to IR, optimize it, and compile the
// result to trace-VM bytecode. Importing this package is what turns the
// tier on — init registers the compiler with internal/emu.
//
// An error wrapping emu.ErrTraceUnsupported (from lift.Trace) means the
// recording is outside the tier's instruction set; any other error is a
// failure of this pipeline.
func CompileTrace(req *emu.TraceRequest) (emu.TraceRunFunc, error) {
	prog, err := lift.Trace(req)
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(prog.F); err != nil {
		return nil, fmt.Errorf("jit: trace IR: %w", err)
	}
	opt.Optimize(prog.F, traceOptConfig(req.O3))
	vm, err := buildVM(prog, req.Mem, req.Cost)
	if err != nil {
		return nil, err
	}
	if !req.NoNative {
		// Native emission rejecting a trace (unsupported op shape, exotic
		// cost model, non-amd64 host) is not an error: the bytecode VM is
		// the always-correct fallback.
		if np, nerr := buildNative(vm, prog, req.Head, req.O3); nerr == nil {
			emu.CountTraceNativeCompile()
			return np.run, nil
		}
	}
	return vm.run, nil
}

// traceOptConfig is the optimizer configuration for trace IR. It is
// deliberately restricted: inlining and unrolling would clone the exit and
// memory-intrinsic calls that anchor the side tables, and CFG simplification
// would delete the not-taken exit blocks. InstCombine, DCE and CSE — the
// passes that actually pay here, by deleting the dead flag machinery and
// folding the lifter's facet masks — run at both levels; level 3
// additionally iterates them to a fixpoint. FastMath stays unset: a trace
// must compute every floating-point result the recorded instructions
// compute, bit for bit, so nothing may be reassociated or identity-folded.
func traceOptConfig(o3 bool) opt.Config {
	cfg := opt.Config{Level: 1, NoInline: true, NoUnroll: true, NoSimplify: true}
	if o3 {
		cfg.Level = 3
	}
	return cfg
}

func init() {
	emu.RegisterTraceCompiler(CompileTrace)
}
