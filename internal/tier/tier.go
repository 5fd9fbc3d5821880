// Package tier implements tiered execution: every registered function runs
// behind a stable dispatch handle, starting on the slowest-but-free tier and
// getting promoted to progressively better code as it proves hot.
//
// The tiers mirror the paper's compile-time/run-time tradeoff (Section V,
// Figure 10): rewriting plus LLVM-style optimization only pays off once a
// function is called often enough to amortize the transformation time, so
// the manager spends nothing up front and invests compile time proportional
// to observed hotness:
//
//	tier 0  interpret the original machine code on the emulator
//	tier 1  lightweight specialization (DBrew alone), compiled fast
//	tier 2  full specialization + optimization pipeline (DBrew + opt.O3)
//
// Promotions compile in a background goroutine and install via an atomic
// code-pointer swap, so callers never block on a compile (unless
// Config.Synchronous is set, which is deterministic and useful for tests and
// benchmarks). Each handle keeps one in-flight flag per tier: no matter how
// many goroutines cross a hotness threshold together, each (handle, tier)
// promotion compiles exactly once. The manager keeps no compile cache of its
// own; every handle compiles through its own CompileFunc, so no handle is
// ever served code compiled for another handle's configuration.
//
// A function whose specialized code depends on fixed memory regions
// (dbrew_setmem-style) declares them at registration; Manager.Invalidate
// deoptimizes every overlapping function back to tier 0, so mutating a fixed
// region never leaves stale specialized code reachable.
package tier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/x86"
)

// CompileResult is the outcome of compiling a function for a target level.
type CompileResult struct {
	// Entry is the address of the generated code in the shared address
	// space.
	Entry uint64
	// CodeSize is the generated code size in bytes.
	CodeSize int
}

// CompileFunc produces code for one target level. It runs on a background
// goroutine (or the calling goroutine under Config.Synchronous) and must be
// safe to run concurrently with calls executing the function's current
// tier, and with compilations for other levels and other functions; two
// compilations of one function for the same level never run concurrently.
type CompileFunc func(target Level) (CompileResult, error)

// FixedArg pins one integer/pointer argument to a known value. The
// dispatcher applies the pin at every tier, so tier-0 interpretation of the
// original code computes exactly what the tier-2 specialized code hardwires.
type FixedArg struct {
	Idx int
	Val uint64
}

// Range is a half-open fixed-memory interval [Start, End) the function's
// specialized code was compiled against.
type Range struct {
	Start, End uint64
}

// Config tunes the promotion policy.
type Config struct {
	// Tier1Calls and Tier2Calls are the invocation counts at which a
	// function becomes eligible for tier 1 and tier 2. Zero selects the
	// defaults (10 and 100). Tier2Calls below Tier1Calls effectively skips
	// tier 1.
	Tier1Calls uint64
	Tier2Calls uint64

	// Synchronous compiles promotions on the calling goroutine at the call
	// that crosses the threshold, instead of in the background. Promotion
	// points become deterministic; the crossing call pays the compile.
	Synchronous bool
}

// stackSize is the private stack per pooled executor. Each concurrent caller
// gets its own stack region, which is what makes dispatch safe from many
// goroutines on one shared address space.
const stackSize = 64 << 10

func (c Config) withDefaults() Config {
	if c.Tier1Calls == 0 {
		c.Tier1Calls = 10
	}
	if c.Tier2Calls == 0 {
		c.Tier2Calls = 100
	}
	return c
}

// Manager owns the registered functions and the promotion policy. All
// methods are safe for concurrent use.
type Manager struct {
	cfg Config

	pool sync.Pool // of *executor
	wg   sync.WaitGroup

	mu    sync.Mutex
	funcs []*Func
}

// NewManager creates a tiering manager over the given address space.
func NewManager(mem *emu.Memory, cfg Config) *Manager {
	m := &Manager{cfg: cfg.withDefaults()}
	m.pool.New = func() any {
		stack := mem.Alloc(stackSize, 4096, "tier.stack")
		return &executor{
			m: emu.NewMachine(mem),
			// Leave the ABI red zone below the initial stack pointer.
			stackTop: stack.End() - 64,
		}
	}
	return m
}

// executor is a pooled emulator machine with a private stack, so concurrent
// dispatched calls never share mutable machine state.
type executor struct {
	m        *emu.Machine
	stackTop uint64
}

// FuncSpec registers one function with the manager.
type FuncSpec struct {
	// Name labels the function in statistics (defaults to the entry
	// address).
	Name string
	// Entry is the original machine-code entry point — the tier-0 target.
	Entry uint64
	// Fixed pins arguments at dispatch so every tier computes the
	// specialized semantics.
	Fixed []FixedArg
	// Ranges are the fixed memory regions the tier-1 and tier-2
	// specializations fold; Manager.Invalidate deoptimizes on overlap.
	Ranges []Range
	// Compile produces code for tier 1 and tier 2.
	Compile CompileFunc
}

// Register adds a function to the manager and returns its dispatch handle,
// initially executing at tier 0.
func (m *Manager) Register(spec FuncSpec) (*Func, error) {
	if spec.Entry == 0 {
		return nil, fmt.Errorf("tier: zero entry address")
	}
	if spec.Compile == nil {
		return nil, fmt.Errorf("tier: nil compile function")
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("fn_%#x", spec.Entry)
	}
	f := &Func{
		mgr:       m,
		name:      spec.Name,
		orig:      spec.Entry,
		fixed:     append([]FixedArg(nil), spec.Fixed...),
		ranges:    append([]Range(nil), spec.Ranges...),
		compile:   spec.Compile,
		enteredAt: time.Now(),
	}
	f.active.Store(&codeState{level: Tier0, entry: spec.Entry})
	m.mu.Lock()
	m.funcs = append(m.funcs, f)
	m.mu.Unlock()
	return f, nil
}

// Funcs returns the registered handles in registration order.
func (m *Manager) Funcs() []*Func {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Func(nil), m.funcs...)
}

// Drain blocks until all in-flight background promotions have finished
// (installed, been discarded, or failed).
func (m *Manager) Drain() { m.wg.Wait() }

// Invalidate declares that bytes in [start, end) changed. Every function
// whose fixed ranges overlap is deoptimized back to tier 0: its counters
// reset and any in-flight promotion result is discarded on arrival. It
// returns the number of functions deoptimized. Call it after mutating memory
// a specialization was compiled against; the next promotion re-specializes
// over the new contents.
func (m *Manager) Invalidate(start, end uint64) int {
	n := 0
	for _, f := range m.Funcs() {
		if f.overlaps(start, end) {
			f.deopt()
			n++
		}
	}
	return n
}

// Stats snapshots every registered function plus the emulator's trace-tier
// counters.
func (m *Manager) Stats() Stats {
	st := Stats{Trace: emu.ReadTraceStats()}
	for _, f := range m.Funcs() {
		st.Funcs = append(st.Funcs, f.Stats())
	}
	return st
}

// codeState is the immutable dispatch target; Func.active swaps atomically
// between states on promotion and deoptimization.
type codeState struct {
	level Level
	entry uint64
	size  int
}

// Func is the stable dispatch handle for one registered function. Callers
// keep invoking the same handle while the code behind it is swapped by
// promotions and deoptimizations.
type Func struct {
	mgr     *Manager
	name    string
	orig    uint64
	fixed   []FixedArg
	ranges  []Range
	compile CompileFunc

	active   atomic.Pointer[codeState]
	calls    atomic.Uint64
	cycles   atomic.Uint64
	insts    atomic.Uint64
	gen      atomic.Uint64
	inflight [NumLevels]atomic.Bool
	failed   [NumLevels]atomic.Bool

	hist [NumLevels]LatencyHistogram

	statsMu     sync.Mutex
	enteredAt   time.Time
	timeIn      [NumLevels]time.Duration
	promotions  [NumLevels]uint64
	deopts      uint64
	compileErrs uint64
	compileTime time.Duration
	lastErr     error
}

// Name returns the registration name.
func (f *Func) Name() string { return f.name }

// Level returns the currently installed tier.
func (f *Func) Level() Level { return f.active.Load().level }

// Entry returns the address of the currently installed code.
func (f *Func) Entry() uint64 { return f.active.Load().entry }

// Call dispatches through f's current tier with the SysV convention and
// returns RAX. Fixed arguments override the passed values. Safe for
// concurrent use; a call that crosses a hotness threshold triggers (or, in
// synchronous mode, performs) promotion.
func (f *Func) Call(ints []uint64, floats []float64) (uint64, error) {
	rax, _, err := f.dispatch(ints, floats)
	return rax, err
}

// CallF dispatches like Call but returns XMM0 as a float64.
func (f *Func) CallF(ints []uint64, floats []float64) (float64, error) {
	_, xmm0, err := f.dispatch(ints, floats)
	return xmm0, err
}

func (f *Func) dispatch(ints []uint64, floats []float64) (rax uint64, xmm0 float64, err error) {
	st := f.active.Load()
	args := ints
	if len(f.fixed) > 0 {
		args = append(make([]uint64, 0, len(ints)+len(f.fixed)), ints...)
		for _, fx := range f.fixed {
			for len(args) <= fx.Idx {
				args = append(args, 0)
			}
			args[fx.Idx] = fx.Val
		}
	}
	ex := f.mgr.pool.Get().(*executor)
	ex.m.Reset()
	ex.m.GPR[x86.RSP] = ex.stackTop
	rax, err = ex.m.Call(st.entry, emu.CallArgs{Ints: args, Floats: floats}, 0)
	xmm0 = emuF64(ex.m.XMM[0].Lo)
	cyc := uint64(ex.m.Cycles)
	n := ex.m.InstCount
	f.mgr.pool.Put(ex)
	if err != nil {
		return 0, 0, err
	}
	calls := f.calls.Add(1)
	f.cycles.Add(cyc)
	f.insts.Add(n)
	f.maybePromote(calls)
	return rax, xmm0, nil
}

// maybePromote requests the highest tier whose call-count threshold has
// been crossed. Requests are deduplicated per target level; a direct 0→2
// jump happens when both thresholds were crossed before tier 1 finished
// compiling.
func (f *Func) maybePromote(calls uint64) {
	st := f.active.Load()
	cfg := f.mgr.cfg
	switch {
	case st.level < Tier2 && calls >= cfg.Tier2Calls:
		f.requestPromotion(Tier2)
	case st.level < Tier1 && calls >= cfg.Tier1Calls:
		f.requestPromotion(Tier1)
	}
}

func (f *Func) requestPromotion(target Level) {
	if f.failed[target].Load() {
		return // compile already failed; stay at the current tier
	}
	if !f.inflight[target].CompareAndSwap(false, true) {
		return // a promotion to this level is already in flight
	}
	if f.mgr.cfg.Synchronous {
		f.promote(target)
		return
	}
	f.mgr.wg.Add(1)
	go func() {
		defer f.mgr.wg.Done()
		f.promote(target)
	}()
}

// promote compiles the target level and installs the result with an atomic
// swap, unless the function was deoptimized while the compile ran (the
// generation check) or a higher tier was installed meanwhile.
func (f *Func) promote(target Level) {
	defer f.inflight[target].Store(false)
	gen := f.gen.Load()
	start := time.Now()
	res, err := f.compile(target)
	lat := time.Since(start)
	f.hist[target].Add(lat)

	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	f.compileTime += lat
	if err != nil {
		f.compileErrs++
		f.lastErr = err
		f.failed[target].Store(true)
		return
	}
	if f.gen.Load() != gen {
		return // deoptimized during the compile: result is stale
	}
	cur := f.active.Load()
	if cur.level >= target {
		return
	}
	now := time.Now()
	f.timeIn[cur.level] += now.Sub(f.enteredAt)
	f.enteredAt = now
	f.active.Store(&codeState{level: target, entry: res.Entry, size: res.CodeSize})
	f.promotions[target]++
}

// deopt drops the function back to tier 0 and forgets everything derived
// from the invalidated contents.
func (f *Func) deopt() {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	f.gen.Add(1) // discard in-flight promotion results
	f.calls.Store(0)
	f.cycles.Store(0)
	f.insts.Store(0)
	for l := range f.failed {
		f.failed[l].Store(false)
	}
	cur := f.active.Load()
	if cur.level == Tier0 {
		return
	}
	now := time.Now()
	f.timeIn[cur.level] += now.Sub(f.enteredAt)
	f.enteredAt = now
	f.active.Store(&codeState{level: Tier0, entry: f.orig})
	f.deopts++
}

func (f *Func) overlaps(start, end uint64) bool {
	for _, r := range f.ranges {
		if start < r.End && r.Start < end {
			return true
		}
	}
	return false
}
