package dbrewllvm

// Tiered execution (profile-guided promotion). The one-shot Rewrite API
// forces callers to pick, up front, between the slow emulator and the
// expensive optimizing rewrite; the paper's compile-time/run-time tradeoff
// (Section V, Figure 10) says that choice should depend on how hot the
// function turns out to be. EnableTiering turns the engine into an adaptive
// runtime: functions registered through Rewriter.Tiered start interpreted,
// get the paper's cheap half — DBrew's specialization alone — once warm,
// and its expensive half — that output lifted and optimized at O3 — once
// hot, with deoptimization back to the interpreter when a fixed memory
// region is invalidated. Both compiled tiers run the Rewriter's own
// pipeline stages (specialize, optimize), so a tier's code is the code a
// one-shot Rewrite with the matching backend emits.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tier"
	"repro/internal/trace"
)

// TierConfig tunes the promotion policy; the zero value selects the
// defaults (promote to tier 1 after 10 calls, tier 2 after 100, background
// compilation).
type TierConfig = tier.Config

// TierLevel identifies an execution tier.
type TierLevel = tier.Level

// The engine's execution tiers.
const (
	// Tier0 interprets the original machine code (internal/emu).
	Tier0 = tier.Tier0
	// Tier1 runs DBrew's specialized code.
	Tier1 = tier.Tier1
	// Tier2 runs the DBrew output after lift, opt.O3 and JIT.
	Tier2 = tier.Tier2
)

// TieredFunc is the stable dispatch handle of a registered function: call
// it and the engine runs whatever tier is currently installed.
type TieredFunc = tier.Func

// TierFuncStats is the per-function tiering snapshot.
type TierFuncStats = tier.FuncStats

// ErrTieringDisabled is returned by Rewriter.Tiered when
// Engine.EnableTiering has not been called.
var ErrTieringDisabled = errors.New("dbrewllvm: tiering is not enabled (call Engine.EnableTiering first)")

// EnableTiering switches the engine into tiered-execution mode with the
// given promotion policy. Functions are registered with Rewriter.Tiered and
// then called through their handles; the engine promotes them along
// tier 0 → tier 1 → tier 2 as they cross the configured hotness thresholds,
// compiling in the background and installing each result with an atomic
// code-pointer swap. Enable tiering before registering functions; calling
// it again replaces the manager and orphans existing handles.
func (e *Engine) EnableTiering(cfg TierConfig) {
	e.tiering = tier.NewManager(e.Mem, cfg)
}

// TieringEnabled reports whether EnableTiering has been called.
func (e *Engine) TieringEnabled() bool { return e.tiering != nil }

// TierStats returns a snapshot of the tiering state — per-function tier,
// promotion and deopt counts, time-in-tier, and the compile latency
// histogram — plus the emulator's trace-tier counters. Like CacheStats, it
// returns the zero tier.Stats as a sentinel with ok == false when tiering
// is disabled.
func (e *Engine) TierStats() (st tier.Stats, ok bool) {
	if e.tiering == nil {
		return tier.Stats{}, false
	}
	return e.tiering.Stats(), true
}

// DrainTiering blocks until all in-flight background promotions have
// settled. Useful before reading TierStats in tests and benchmarks; a
// no-op when tiering is disabled.
func (e *Engine) DrainTiering() {
	if e.tiering != nil {
		e.tiering.Drain()
	}
}

// InvalidateRange declares that bytes in [start, end) were (or are about to
// be) mutated. Every tiered function whose SetMem-declared fixed regions
// overlap the range is deoptimized back to tier 0 — its specialized code
// was compiled against the old contents — and will re-promote over the new
// contents as it becomes hot again. Returns the number of functions
// deoptimized (0 when tiering is disabled).
//
// The one-shot Rewrite cache and the disk cache need no invalidation call:
// their keys hash the fixed-range contents, so mutated regions miss
// naturally.
func (e *Engine) InvalidateRange(start, end uint64) int {
	if e.tiering == nil {
		return 0
	}
	return e.tiering.Invalidate(start, end)
}

// Tiered registers the rewriter's function with the engine's tiering
// manager and returns its dispatch handle. The rewriter's configuration —
// fixed parameters, fixed memory regions, FastMath, ForceVectorWidth,
// resource limits — is snapshotted at this point into a private Rewriter,
// whose two pipeline stages every compiled tier reuses:
//
//	tier 0  interprets the original code with fixed parameters pinned at
//	        dispatch, so results match the specialization from call one
//	tier 1  runs DBrew's specialization alone, the paper's lightweight
//	        rewriter (the same code a one-shot BackendDBrew Rewrite emits)
//	tier 2  lifts that DBrew output and runs opt.O3 + JIT over it (the
//	        same code a one-shot BackendLLVM Rewrite emits)
//
// A DBrew fallback fails the tier-1 compile, so the handle stays at tier 0
// until tier 2, which then optimizes the original code instead. Each
// promotion counts as one compile in Engine.CompileCount.
//
// The rewriter itself is not retained; it can be reconfigured or discarded
// afterwards. The backend selection and Strict are ignored.
func (r *Rewriter) Tiered(name string) (*TieredFunc, error) {
	mgr := r.eng.tiering
	if mgr == nil {
		return nil, ErrTieringDisabled
	}
	eng := r.eng
	p := NewRewriter(eng, r.entry, r.sig)
	p.FastMath = r.FastMath
	p.ForceVectorWidth = r.ForceVectorWidth
	p.SetConfig(r.rw.Config())
	params := r.rw.KnownParams()
	fixed := make([]tier.FixedArg, len(params))
	for i, fp := range params {
		p.SetPar(fp.Idx, fp.Value)
		fixed[i] = tier.FixedArg{Idx: fp.Idx, Val: fp.Value}
	}
	ranges := r.rw.Ranges()
	tranges := make([]tier.Range, len(ranges))
	for i, rg := range ranges {
		p.SetMem(rg.Start, rg.End)
		tranges[i] = tier.Range{Start: rg.Start, End: rg.End}
	}

	// The tier-1 and tier-2 promotions of this handle may be in flight at
	// once, and both write p's output fields (Stats, CodeSize), so they take
	// turns. Promotions of other handles and one-shot Rewrites run in
	// parallel with them.
	var mu sync.Mutex
	compile := func(target TierLevel) (tier.CompileResult, error) {
		if target != Tier1 && target != Tier2 {
			return tier.CompileResult{}, fmt.Errorf("dbrewllvm: no compiler for %v", target)
		}
		mu.Lock()
		defer mu.Unlock()
		var tr *trace.Trace
		if eng.traceOn.Load() {
			tr = trace.New(fmt.Sprintf("tier%d.promote", int(target)))
			defer func() {
				tr.Finish()
				eng.lastTrace.Store(tr)
			}()
		}
		addr, err := p.specialize(tr)
		switch target {
		case Tier1:
			// A fallback to the original code is no promotion at all.
			if err == nil && p.Stats.Failed {
				err = p.Stats.Err
			}
			if err != nil {
				return tier.CompileResult{}, fmt.Errorf("tier1: %w", err)
			}
		default:
			if err != nil || p.Stats.Failed {
				addr = p.entry // fall back to optimizing the original code
			}
			if addr, _, err = p.optimize(addr, tr); err != nil {
				return tier.CompileResult{}, fmt.Errorf("tier2: %w", err)
			}
		}
		return tier.CompileResult{Entry: addr, CodeSize: p.CodeSize}, nil
	}

	return mgr.Register(tier.FuncSpec{
		Name:    name,
		Entry:   r.entry,
		Fixed:   fixed,
		Ranges:  tranges,
		Compile: compile,
	})
}
