// Package dbrewllvm is a from-scratch Go reproduction of
//
//	A. Engelke, J. Weidendorfer: "Using LLVM for Optimized Lightweight
//	Binary Re-Writing at Runtime", HIPS workshop at IPDPS, 2017.
//
// It provides the paper's full stack as a library: DBrew-style dynamic
// binary rewriting of x86-64 machine code (parameter fixation, fixed memory
// regions, inlining, binary-level constant propagation and unrolling), an
// x86-64 → SSA-IR lifter with the paper's register-facet and flag-cache
// design, an -O3-like optimization pipeline, and a JIT backend that compiles
// the IR back to x86-64 — all running against a built-in machine emulator
// with a Haswell-like timing model, which substitutes for the paper's
// hardware testbed (see DESIGN.md).
//
// The basic usage mirrors Figure 2/3 of the paper:
//
//	eng := dbrewllvm.NewEngine()
//	// ... place machine code and data into eng.Mem ...
//	r := dbrewllvm.NewRewriter(eng, funcAddr, dbrewllvm.Sig(dbrewllvm.Int, dbrewllvm.Int, dbrewllvm.Int))
//	r.SetPar(1, 42)                      // parameter 1 fixed to 42
//	r.SetBackend(dbrewllvm.BackendLLVM)  // lift + optimize + JIT (this paper)
//	newFn, err := r.Rewrite()
//	res, err := eng.Call(newFn, []uint64{1, 2}, nil)
package dbrewllvm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/codecache"
	"repro/internal/dbrew"
	"repro/internal/diskcache"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/lift"
	"repro/internal/opt"
	"repro/internal/tier"
	"repro/internal/trace"
)

// Class re-exports the ABI parameter classes.
type Class = abi.Class

// Parameter classes for Sig.
const (
	Int   = abi.ClassInt
	Ptr   = abi.ClassPtr
	F64   = abi.ClassF64
	NoRet = abi.ClassNone
)

// Signature describes a function boundary per the SysV AMD64 ABI.
type Signature = abi.Signature

// Sig builds a signature: return class first, then parameters.
func Sig(ret Class, params ...Class) Signature { return abi.Sig(ret, params...) }

// Engine owns an emulated address space and executes code in it. It stands
// in for the host process of the original DBrew: functions live at
// addresses, get rewritten into new addresses, and are called through the
// SysV calling convention.
type Engine struct {
	Mem *emu.Memory

	// cache, when non-nil, memoizes Rewrite results by specialization key
	// (see EnableCache). Reads are lock-free on the Rewrite hot path; the
	// pointer itself is only mutated by EnableCache/DisableCache, which must
	// not race with in-flight Rewrite calls.
	cache *codecache.Cache[cachedCode]

	// disk, when non-nil, is the persistent second cache level installed by
	// EnableDiskCache (see persist.go). It sits behind the in-memory cache:
	// misses consult it before compiling, compiles write through to it.
	// Atomic so the counter readers (DiskStats) may race a DisableDiskCache.
	disk atomic.Pointer[diskcache.Store]

	// restored remembers, per key, where diskLookup last placed that key's
	// artifact, so a key that falls out of the memory level and is restored
	// again reuses its code bytes instead of mapping another region.
	restoredMu sync.Mutex
	restored   map[codecache.Key]uint64

	// evictNotify, when non-nil, observes every explicit specialization
	// removal after memory and disk both dropped the key (see persist.go);
	// the dbrewd fleet layer hooks eviction broadcasts here.
	evictNotify func(codecache.Key)

	// compiles counts actual pipeline executions (Rewriter.specialize runs,
	// from Rewrite calls and tier promotions alike) — NOT lookups served
	// from the in-memory cache, the disk store, or a peer. It is the counter warm-restart and
	// fleet exactly-once tests assert on.
	compiles atomic.Int64

	// tiering, when non-nil, is the tiered-execution manager installed by
	// EnableTiering (see tiering.go).
	tiering *tier.Manager

	// traceOn gates pipeline tracing. When false (the default) Rewrite runs
	// with a nil *trace.Trace, which every stage treats as "record nothing"
	// at the cost of one atomic load — the hot path stays allocation-free.
	traceOn atomic.Bool
	// lastTrace holds the most recently finished pipeline trace.
	lastTrace atomic.Pointer[trace.Trace]
}

// cachedCode is the per-specialization payload kept in the code cache:
// enough to restore a Rewriter's outputs without recompiling.
type cachedCode struct {
	addr     uint64
	codeSize int
	stats    dbrew.Stats
}

// NewEngine creates an empty engine.
func NewEngine() *Engine {
	return &Engine{Mem: emu.NewMemory(0x10000000), restored: make(map[codecache.Key]uint64)}
}

// EnableCache turns on the specialization code cache: subsequent Rewrite
// calls whose configuration hashes to the same key return the previously
// generated code instead of recompiling, and concurrent Rewrite calls for
// the same key compile exactly once (the rest block on the in-flight
// result). capacity bounds the number of cached specializations; evicted
// entries only forget the mapping — placed code pages stay valid. capacity
// <= 0 selects a default of 1024.
//
// Enable or disable the cache only while no Rewrite calls are in flight.
func (e *Engine) EnableCache(capacity int) {
	e.cache = codecache.New[cachedCode](capacity)
	e.wireRemoveHook()
}

// DisableCache turns the specialization cache off (existing generated code
// remains valid and callable).
func (e *Engine) DisableCache() { e.cache = nil }

// CacheStats returns a snapshot of the specialization-cache counters.
//
// When caching is disabled — EnableCache was never called, or DisableCache
// ran — it returns the zero codecache.Stats as a documented sentinel
// together with ok == false. Callers must branch on ok: a zero Stats with
// ok == true means an enabled cache that has simply seen no traffic yet,
// which is a different situation from "no cache at all". See the
// ExampleEngine_CacheStats godoc example.
func (e *Engine) CacheStats() (st codecache.Stats, ok bool) {
	if e.cache == nil {
		return codecache.Stats{}, false
	}
	return e.cache.Stats(), true
}

// EngineStats aggregates every observable engine counter — the
// specialization-cache counters, the disk artifact store, the derived cache
// hit ratio, the compile counter, and the tiered-execution snapshot — into
// one JSON-marshalable value. Disabled subsystems are nil, so consumers can
// tell "disabled" from "enabled but idle" exactly like the (Stats, ok)
// accessor pairs do.
type EngineStats struct {
	// Compiles counts actual pipeline executions: every Rewrite or tier
	// promotion that ran the compiler rather than being served from memory, disk, or a peer. Always
	// present (a fresh engine reports 0).
	Compiles int64 `json:"compiles"`
	// Cache is CacheStats, nil when the specialization cache is disabled.
	Cache *codecache.Stats `json:"cache,omitempty"`
	// CacheHitRatio is the derived warm fraction Hits/(Hits+Misses) of the
	// in-memory cache, nil when the cache is disabled or has seen no
	// lookups (0/0 is unrepresentable, not zero).
	CacheHitRatio *float64 `json:"cache_hit_ratio,omitempty"`
	// Disk is DiskStats, nil when the disk cache is disabled.
	Disk *diskcache.Stats `json:"disk,omitempty"`
	// Tiering is TierStats, nil when tiering is disabled.
	Tiering *tier.Stats `json:"tiering,omitempty"`
}

// Stats snapshots CacheStats, DiskStats, and TierStats in one call.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{Compiles: e.compiles.Load()}
	if st, ok := e.CacheStats(); ok {
		s.Cache = &st
		if lookups := st.Hits + st.Misses; lookups > 0 {
			ratio := float64(st.Hits) / float64(lookups)
			s.CacheHitRatio = &ratio
		}
	}
	if st, ok := e.DiskStats(); ok {
		s.Disk = &st
	}
	if st, ok := e.TierStats(); ok {
		s.Tiering = &st
	}
	return s
}

// StatsJSON marshals the EngineStats snapshot — compile counter, cache
// counters with derived hit ratio, disk-store counters, tiering — to JSON
// in one call; this is the payload dbrewd's /metrics endpoint embeds. See
// the ExampleEngine_StatsJSON godoc example.
func (e *Engine) StatsJSON() ([]byte, error) {
	return json.Marshal(e.Stats())
}

// CompileCount returns the number of actual pipeline executions this engine
// has run — Rewrite calls (or tier promotions) that compiled, as opposed to
// being served from the in-memory cache, the disk store, or a peer. The
// warm-restart acceptance test asserts this stays zero when every request
// hits disk.
func (e *Engine) CompileCount() int64 { return e.compiles.Load() }

// EnableTracing turns on pipeline tracing: every subsequent Rewrite (and
// tier promotion) records one span per executed stage — cache lookup, dbrew
// rewrite, decode, lift, each optimizer round, JIT emit — with durations and
// input/output sizes. The most recent trace is retrievable via LastTrace or
// TraceJSON. Tracing is engine-global and safe to toggle at runtime; while
// off, the only cost on the Rewrite path is a single atomic load.
func (e *Engine) EnableTracing() { e.traceOn.Store(true) }

// DisableTracing turns pipeline tracing off. Already-captured traces remain
// retrievable.
func (e *Engine) DisableTracing() { e.traceOn.Store(false) }

// TracingEnabled reports whether pipeline tracing is on.
func (e *Engine) TracingEnabled() bool { return e.traceOn.Load() }

// LastTrace returns the most recently completed pipeline trace, or nil when
// tracing never captured one. The returned trace is finished and safe to
// read concurrently.
func (e *Engine) LastTrace() *trace.Trace { return e.lastTrace.Load() }

// TraceJSON marshals the most recent pipeline trace to JSON. It returns nil
// when no trace has been captured yet.
func (e *Engine) TraceJSON() []byte {
	return e.lastTrace.Load().JSON()
}

// RegisterMetrics exports every engine counter — specialization-cache
// hits/misses/waits/evictions, tier promotions/deopts, per-tier function
// gauges, and the compile-latency histogram — into reg under the "dbrew_"
// namespace. Disabled subsystems export nothing (their snapshot functions
// report ok == false), so the output only ever shows live series.
func (e *Engine) RegisterMetrics(reg *trace.Registry) {
	codecache.RegisterMetrics(reg, "dbrew_codecache", e.CacheStats)
	diskcache.RegisterMetrics(reg, "dbrew_diskcache", e.DiskStats)
	tier.RegisterMetrics(reg, "dbrew_tier", e.TierStats)
	reg.Counter("dbrew_engine_compiles_total",
		"Actual pipeline executions (not served from memory, disk, or a peer).",
		func() float64 { return float64(e.compiles.Load()) })
}

// CachePeek reports whether the specialization key k is already cached and
// whether a compilation for it is currently in flight; ok is false when the
// cache is disabled. Together with Rewriter.CacheKey it forms the
// coalescing hook of the dbrewd service: requests whose key is cached or in
// flight are routed straight to RewriteCtx (which joins the existing flight
// instead of compiling) without consuming a compile-concurrency slot.
func (e *Engine) CachePeek(k codecache.Key) (cached, inflight, ok bool) {
	if e.cache == nil {
		return false, false, false
	}
	cached, inflight = e.cache.Peek(k)
	return cached, inflight, true
}

// Alloc reserves zeroed memory and returns its address.
func (e *Engine) Alloc(size int, name string) uint64 {
	return e.Mem.Alloc(size, 16, name).Start
}

// PlaceCode maps machine code at a fresh address and returns it.
func (e *Engine) PlaceCode(code []byte, name string) uint64 {
	r := e.Mem.Alloc(len(code), 16, name)
	copy(r.Data, code)
	return r.Start
}

// Call invokes the function at entry with the given integer/pointer and
// float arguments, returning RAX. Use CallF for a floating-point result.
func (e *Engine) Call(entry uint64, ints []uint64, floats []float64) (uint64, error) {
	m := emu.NewMachine(e.Mem)
	return m.Call(entry, emu.CallArgs{Ints: ints, Floats: floats}, 0)
}

// CallF invokes the function at entry and returns XMM0 as a float64.
func (e *Engine) CallF(entry uint64, ints []uint64, floats []float64) (float64, error) {
	m := emu.NewMachine(e.Mem)
	if _, err := m.Call(entry, emu.CallArgs{Ints: ints, Floats: floats}, 0); err != nil {
		return 0, err
	}
	return ir.RV{Lo: m.XMM[0].Lo}.F64(), nil
}

// Measure runs the function and reports modelled cycles and retired
// instructions alongside the result.
func (e *Engine) Measure(entry uint64, ints []uint64, floats []float64) (rax uint64, cycles float64, insts uint64, err error) {
	m := emu.NewMachine(e.Mem)
	rax, err = m.Call(entry, emu.CallArgs{Ints: ints, Floats: floats}, 0)
	return rax, m.Cycles, m.InstCount, err
}

// Backend selects the code generator of a Rewriter, the configuration this
// paper adds to DBrew (Section II): the classic binary encoder, or the
// lift → optimize → JIT pipeline.
type Backend int

// Backends.
const (
	BackendDBrew Backend = iota
	BackendLLVM
)

// Stage identifies the pipeline stage a Rewrite failure originated in, so
// callers (e.g. the dbrewd service) can map failures to distinct responses.
type Stage int

// The pipeline stages of Figure 1, in execution order.
const (
	// StageRewrite is the DBrew binary-rewriting pass.
	StageRewrite Stage = iota
	// StageLift is the x86-64 → IR lifter.
	StageLift
	// StageOptimize is the IR optimization pipeline (including the
	// post-optimization verifier that guards Strict mode).
	StageOptimize
	// StageJIT is the IR → x86-64 code generator.
	StageJIT
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageRewrite:
		return "rewrite"
	case StageLift:
		return "lift"
	case StageOptimize:
		return "optimize"
	case StageJIT:
		return "jit"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Per-stage sentinels for errors.Is. A *StageError matches exactly the
// sentinel of its stage:
//
//	if errors.Is(err, dbrewllvm.ErrStageLift) { ... }
var (
	ErrStageRewrite  = errors.New("dbrewllvm: rewrite stage failed")
	ErrStageLift     = errors.New("dbrewllvm: lift stage failed")
	ErrStageOptimize = errors.New("dbrewllvm: optimize stage failed")
	ErrStageJIT      = errors.New("dbrewllvm: jit stage failed")
)

func stageSentinel(s Stage) error {
	switch s {
	case StageRewrite:
		return ErrStageRewrite
	case StageLift:
		return ErrStageLift
	case StageOptimize:
		return ErrStageOptimize
	case StageJIT:
		return ErrStageJIT
	}
	return nil
}

// StageError wraps a Rewrite failure with the pipeline stage it came from.
// Unwrap exposes the cause; Is matches the per-stage sentinel.
type StageError struct {
	Stage Stage
	Err   error
}

// Error formats as "dbrewllvm: <stage> stage: <cause>".
func (e *StageError) Error() string {
	return fmt.Sprintf("dbrewllvm: %s stage: %v", e.Stage, e.Err)
}

// Unwrap returns the underlying cause.
func (e *StageError) Unwrap() error { return e.Err }

// Is reports whether target is the sentinel of this error's stage.
func (e *StageError) Is(target error) bool { return target == stageSentinel(e.Stage) }

// Rewriter mirrors the dbrew_rewriter object: configure known values, pick
// a backend, call Rewrite to obtain a drop-in replacement function.
type Rewriter struct {
	eng     *Engine
	entry   uint64
	sig     Signature
	backend Backend
	rw      *dbrew.Rewriter

	// FastMath enables floating-point optimizations (-ffast-math analog)
	// in the LLVM backend. Default true, as in the paper's evaluation.
	FastMath bool
	// ForceVectorWidth forces loop vectorization at the given width (only
	// 2 is supported), Section VI-B's experiment.
	ForceVectorWidth int

	// NoCache bypasses the engine's specialization cache for this rewriter
	// even when Engine.EnableCache is active (e.g. for one-off rewrites that
	// would only pollute the cache).
	NoCache bool

	// Trace, when non-nil, receives the pipeline spans of the next Rewrite
	// call (cache lookup, rewrite, decode, lift, optimize rounds, jit) —
	// callers that own a larger trace (e.g. dbrewd's per-request traces) set
	// it to embed the pipeline inside their own span tree. When nil and the
	// engine has tracing enabled, Rewrite creates a trace per call and
	// publishes it through Engine.LastTrace.
	Trace *trace.Trace

	// Strict turns silent fallbacks into errors: instead of returning the
	// DBrew output (or the original entry) when a pipeline stage fails,
	// Rewrite returns a *StageError identifying the failing stage — the
	// contract a service needs to map failures to distinct status codes.
	// Strict also runs the IR verifier after optimization, surfacing
	// pipeline bugs as StageOptimize errors instead of miscompiled code.
	// The default (false) keeps DBrew's "always return runnable code"
	// behavior.
	Strict bool

	// Stats of the last Rewrite (valid for both backends).
	Stats dbrew.Stats
	// CodeSize is the size in bytes of the finally generated code.
	CodeSize int
	// CacheHit reports whether the last Rewrite was served from the engine's
	// specialization cache (including waiting on another goroutine's
	// in-flight compilation) instead of compiling.
	CacheHit bool
	// Source names the level that produced the last Rewrite's code:
	// "memory" (in-memory cache hit, or joined another goroutine's in-flight
	// compile), "disk" (persisted artifact restored without compiling), or
	// "compile" (the pipeline actually ran).
	Source string

	// diskHit records that the last miss closure was satisfied from disk.
	diskHit bool
}

// NewRewriter creates a rewriter for the function at entry.
func NewRewriter(e *Engine, entry uint64, sig Signature) *Rewriter {
	return &Rewriter{
		eng:      e,
		entry:    entry,
		sig:      sig,
		rw:       dbrew.NewRewriter(e.Mem, entry, sig),
		FastMath: true,
	}
}

// SetPar fixes parameter idx to a known integer value (dbrew_setpar).
func (r *Rewriter) SetPar(idx int, v uint64) { r.rw.SetPar(idx, v) }

// SetParPtr fixes parameter idx to a pointer whose target region holds
// fixed values.
func (r *Rewriter) SetParPtr(idx int, addr uint64, size int) { r.rw.SetParPtr(idx, addr, size) }

// SetMem declares [start, end) as fixed memory (dbrew_setmem).
func (r *Rewriter) SetMem(start, end uint64) { r.rw.SetMem(start, end) }

// SetBackend selects the code generation backend.
func (r *Rewriter) SetBackend(b Backend) { r.backend = b }

// SetConfig forwards DBrew resource limits.
func (r *Rewriter) SetConfig(c dbrew.Config) { r.rw.SetConfig(c) }

// Rewrite produces the specialized function. With BackendDBrew the binary
// encoder emits the result directly; with BackendLLVM the DBrew output is
// lifted to IR, optimized at -O3, and JIT-compiled (Figure 1's full path).
// On unrecoverable failure the original entry is returned, preserving
// correctness as DBrew's default error handler does.
//
// When the engine's specialization cache is enabled (Engine.EnableCache)
// and NoCache is false, the result is memoized under a canonical key of the
// entry address, signature, backend, optimization switches, fallback policy
// (Strict), fixed parameters, and the current contents of all fixed memory
// ranges. Mutating bytes inside a SetMem range therefore changes the key and
// forces a fresh compile — cached code can never go stale. Concurrent
// Rewrite calls are safe as long as each goroutine uses its own Rewriter;
// same-key calls compile exactly once, and distinct keys compile in
// parallel.
func (r *Rewriter) Rewrite() (uint64, error) {
	return r.RewriteCtx(context.Background())
}

// RewriteCtx is Rewrite with a deadline: a call that would block waiting
// on another goroutine's in-flight compilation of the same key gives up when
// ctx is done and returns ctx.Err(), and a miss whose ctx is already done
// does not start compiling. Compilations of distinct keys never wait on one
// another: each allocates its own code regions and writes only into them.
// A compilation that has already started is never aborted mid-way; the
// in-flight result still lands in the cache for the next caller. This is
// the entry point dbrewd's per-request deadlines use.
func (r *Rewriter) RewriteCtx(ctx context.Context) (uint64, error) {
	r.CacheHit = false
	r.Source = "compile"
	r.diskHit = false
	tr := r.Trace
	if tr == nil && r.eng.traceOn.Load() {
		// Engine-owned trace: finish and publish it whatever the outcome.
		tr = trace.New("rewrite")
		defer func() {
			tr.Finish()
			r.eng.lastTrace.Store(tr)
		}()
	}
	cache := r.eng.cache
	if cache == nil || r.NoCache {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		addr, _, err := r.compile(tr)
		return addr, err
	}
	key, ok := r.cacheKey()
	if !ok {
		// A fixed range points at unmapped memory; let the uncached path
		// surface whatever the rewriter does with it.
		addr, _, err := r.compile(tr)
		return addr, err
	}
	csp := tr.Start("cache")
	v, hit, err := cache.DoCtx(ctx, key, func() (cachedCode, error) {
		if err := ctx.Err(); err != nil {
			// Don't start work nobody is waiting for.
			return cachedCode{}, err
		}
		// Second level: a persisted artifact for this key skips the
		// pipeline entirely (the warm-restart path).
		if cc, ok := r.eng.diskLookup(key, tr); ok {
			r.diskHit = true
			return cc, nil
		}
		addr, irText, err := r.compile(tr)
		if err != nil {
			return cachedCode{}, err
		}
		cc := cachedCode{addr: addr, codeSize: r.CodeSize, stats: r.Stats}
		r.eng.diskWrite(key, cc, irText, tr)
		return cc, nil
	})
	if err != nil {
		csp.EndErr(err)
		return 0, err
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	csp.Int("code_bytes", int64(v.codeSize)).Outcome(outcome).End()
	r.CacheHit = hit
	switch {
	case hit:
		r.Source = "memory"
	case r.diskHit:
		r.Source = "disk"
	}
	r.Stats = v.stats
	r.CodeSize = v.codeSize
	return v.addr, nil
}

// CacheKey exposes the canonical specialization key of the current
// configuration — the same key Rewrite memoizes and coalesces under. ok is
// false when the configuration is not hashable (a fixed range points at
// unmapped memory) or caching is disabled. Use with Engine.CachePeek to
// dispatch requests without starting duplicate compilations.
func (r *Rewriter) CacheKey() (codecache.Key, bool) {
	if r.eng.cache == nil || r.NoCache {
		return codecache.Key{}, false
	}
	return r.cacheKey()
}

// cacheKey canonicalizes the rewriter configuration into a specialization
// cache key. Fixed memory ranges contribute their current byte contents, so
// two rewrites over different data never collide. ok is false when a fixed
// range cannot be read (unmapped memory).
func (r *Rewriter) cacheKey() (codecache.Key, bool) {
	h := codecache.NewHasher()
	h.U64(r.entry)
	h.I64(int64(r.backend))
	h.Bool(r.FastMath)
	h.Bool(r.Strict) // a non-strict fallback must not satisfy a Strict call
	h.I64(int64(r.ForceVectorWidth))

	h.I64(int64(r.sig.Ret))
	h.U64(uint64(len(r.sig.Params)))
	for _, p := range r.sig.Params {
		h.I64(int64(p))
	}

	cfg := r.rw.Config()
	h.I64(int64(cfg.BufferSize))
	h.I64(int64(cfg.MaxInsts))
	h.I64(int64(cfg.InlineDepth))

	params := r.rw.KnownParams()
	h.U64(uint64(len(params)))
	for _, p := range params {
		h.I64(int64(p.Idx))
		h.U64(p.Value)
	}

	ranges := append([]dbrew.Range(nil), r.rw.Ranges()...)
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].Start != ranges[j].Start {
			return ranges[i].Start < ranges[j].Start
		}
		return ranges[i].End < ranges[j].End
	})
	h.U64(uint64(len(ranges)))
	for _, rg := range ranges {
		h.U64(rg.Start)
		h.U64(rg.End)
		data, err := r.eng.Mem.Read(rg.Start, int(rg.End-rg.Start))
		if err != nil {
			return codecache.Key{}, false
		}
		h.Bytes(data)
	}
	return h.Sum(), true
}

// compile is the uncached Rewrite path: specialize, then (for BackendLLVM)
// optimize over its output. Stage failures fall back to the best earlier
// result (DBrew's default error handling) unless Strict is set, in which
// case they surface as *StageError. tr (which may be nil) receives one span
// per executed stage. irText is the optimized IR that optimize formatted for
// the disk store, empty when no IR-level code was installed.
func (r *Rewriter) compile(tr *trace.Trace) (addr uint64, irText string, err error) {
	addr, err = r.specialize(tr)
	if err != nil {
		return 0, "", err
	}
	if r.Stats.Failed && r.Strict {
		cause := r.Stats.Err
		if cause == nil {
			cause = errors.New("dbrew fell back to the original function")
		}
		return 0, "", &StageError{Stage: StageRewrite, Err: cause}
	}
	if r.backend == BackendDBrew || r.Stats.Failed {
		return addr, "", nil
	}
	jaddr, irText, err := r.optimize(addr, tr)
	if err != nil {
		if r.Strict {
			return 0, "", err
		}
		// A lift or JIT failure falls back to the DBrew output.
		return addr, "", nil
	}
	return jaddr, irText, nil
}

// specialize is the pipeline's first stage, DBrew's binary rewriting: it
// counts one compile and sets Stats and CodeSize. On a DBrew fallback it
// returns the original entry with Stats.Failed set.
func (r *Rewriter) specialize(tr *trace.Trace) (uint64, error) {
	r.eng.compiles.Add(1)
	r.rw.Trace = tr
	addr, err := r.rw.Rewrite()
	r.Stats = r.rw.Stats
	r.CodeSize = r.Stats.CodeSize
	if err != nil {
		return 0, &StageError{Stage: StageRewrite, Err: err}
	}
	return addr, nil
}

// optimize is the pipeline's second stage: lift the code at addr, run
// opt.O3 over it and JIT-compile the result, setting CodeSize on success.
// While the disk store is enabled it also returns the optimized IR as text,
// for the persisted artifact. Failures are *StageError values; under Strict
// the IR verifier runs between optimization and JIT.
func (r *Rewriter) optimize(addr uint64, tr *trace.Trace) (uint64, string, error) {
	lo := lift.DefaultOptions()
	lo.Trace = tr
	l := lift.New(r.eng.Mem, lo)
	f, err := l.LiftFunc(addr, "rewritten", r.sig)
	if err != nil {
		return 0, "", &StageError{Stage: StageLift, Err: err}
	}
	cfg := opt.O3()
	cfg.FastMath = r.FastMath
	cfg.ForceVectorWidth = r.ForceVectorWidth
	cfg.Trace = tr
	opt.Optimize(f, cfg)
	var irText string
	if r.eng.disk.Load() != nil {
		// The persisted artifact carries the optimized IR for debuggability;
		// only pay the formatting cost when something will store it.
		irText = ir.FormatFunc(f)
	}
	if r.Strict {
		if err := ir.Verify(f); err != nil {
			return 0, "", &StageError{Stage: StageOptimize, Err: err}
		}
	}
	comp := jit.NewCompiler(r.eng.Mem)
	comp.Trace = tr
	jaddr, err := comp.CompileModule(l.Module, f.Nam)
	if err != nil {
		return 0, "", &StageError{Stage: StageJIT, Err: err}
	}
	r.CodeSize = comp.Sizes[jaddr]
	return jaddr, irText, nil
}

// LiftResult carries a lifted function and its module for inspection or
// further transformation.
type LiftResult struct {
	Func   *ir.Func
	Module *ir.Module
	lifter *lift.Lifter
}

// Lift converts the function at entry into SSA IR (Section III) without
// specializing it.
func (e *Engine) Lift(entry uint64, name string, sig Signature) (*LiftResult, error) {
	l := lift.New(e.Mem, lift.DefaultOptions())
	f, err := l.LiftFunc(entry, name, sig)
	if err != nil {
		return nil, err
	}
	return &LiftResult{Func: f, Module: l.Module, lifter: l}, nil
}

// LiftWith converts with explicit lifter options (flag cache, facet cache,
// GEP addressing — the paper's design switches).
func (e *Engine) LiftWith(entry uint64, name string, sig Signature, o lift.Options) (*LiftResult, error) {
	l := lift.New(e.Mem, o)
	f, err := l.LiftFunc(entry, name, sig)
	if err != nil {
		return nil, err
	}
	return &LiftResult{Func: f, Module: l.Module, lifter: l}, nil
}

// Optimize runs the -O3-like pipeline on the lifted function.
func (lr *LiftResult) Optimize() opt.Stats { return opt.Optimize(lr.Func, opt.O3()) }

// Compile JIT-compiles the (optimized) function back into the engine's
// address space and returns its entry.
func (lr *LiftResult) Compile(e *Engine) (uint64, error) {
	comp := jit.NewCompiler(e.Mem)
	return comp.CompileModule(lr.Module, lr.Func.Nam)
}

// IR returns the function's textual IR (LLVM-like syntax).
func (lr *LiftResult) IR() string { return ir.FormatFunc(lr.Func) }

// Disassemble renders size bytes of machine code at addr, one instruction
// per line.
func (e *Engine) Disassemble(addr uint64, size int) ([]string, error) {
	return dbrew.Listing(e.Mem, addr, size)
}

// Verify re-checks the structural invariants of a lifted function.
func (lr *LiftResult) Verify() error { return ir.Verify(lr.Func) }

// String summarizes rewriting statistics.
func StatsString(s dbrew.Stats) string {
	return fmt.Sprintf("decoded %d, emitted %d, eliminated %d, inlined %d, code %d bytes",
		s.Decoded, s.Emitted, s.Eliminated, s.Inlined, s.CodeSize)
}

// liftDefaultsWithFlagCache returns the default lifter options with the
// flag cache toggled — a convenience for the Figure 6 benchmarks.
func liftDefaultsWithFlagCache(on bool) lift.Options {
	o := lift.DefaultOptions()
	o.FlagCache = on
	return o
}
