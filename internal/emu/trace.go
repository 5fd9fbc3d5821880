package emu

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/x86"
)

// This file implements the emulator side of the tracing JIT tier. The block
// engine counts backward-edge dispatches per target block; at the hot
// threshold the target becomes a trace head and the dispatcher records the
// concrete path of translated blocks it executes until the path closes back
// at the head. The recorded superblock is handed to a registered trace
// compiler (internal/jit wires one through lift → opt → a bytecode VM), and
// subsequent arrivals at the head run the compiled trace natively. Every
// off-trace branch and every abnormal memory access is a side exit that
// materializes the full architectural state — registers, flags, RIP,
// InstCount and Cycles — and falls back to the block engine.
//
// The package split keeps layering acyclic: emu knows nothing about IR. The
// compiler is injected through RegisterTraceCompiler, which internal/jit
// calls from an init function.

// TraceOptions tunes the trace tier. Zero fields take defaults.
type TraceOptions struct {
	// HotThreshold is the number of backward-edge dispatches of a block
	// before it is recorded as a trace head. Default 16.
	HotThreshold uint32
	// O3Threshold is the number of executions of a compiled trace before it
	// is recompiled at opt level 3. Default 128.
	O3Threshold uint64
	// MaxInsts caps the instructions in a recorded trace. Default 512.
	MaxInsts int
	// MaxBlocks caps the blocks stitched into a recorded trace. Default 64.
	MaxBlocks int
	// NoNativeTraces pins compiled traces to the bytecode trace VM even
	// when a native backend is registered — the A/B reference for the
	// native tier and an escape hatch if host execution misbehaves.
	NoNativeTraces bool
}

func (o *TraceOptions) hotThreshold() uint32 {
	if o.HotThreshold == 0 {
		return 16
	}
	return o.HotThreshold
}

func (o *TraceOptions) o3Threshold() uint64 {
	if o.O3Threshold == 0 {
		return 128
	}
	return o.O3Threshold
}

func (o *TraceOptions) maxInsts() int {
	if o.MaxInsts == 0 {
		return 512
	}
	return o.MaxInsts
}

func (o *TraceOptions) maxBlocks() int {
	if o.MaxBlocks == 0 {
		return 64
	}
	return o.MaxBlocks
}

// TraceStep is one recorded instruction of a superblock trace: the decoded
// instruction, its modelled cost, and — for conditional branches — the
// direction the recording took (the trace continues along it; the other
// direction becomes a guarded side exit).
type TraceStep struct {
	In    *x86.Inst
	Cost  float64
	Taken bool
}

// TraceRequest is the unit of work handed to the registered trace compiler:
// a closed instruction path starting and ending at Head.
type TraceRequest struct {
	Head  uint64
	Steps []TraceStep
	Mem   *Memory
	Cost  *CostModel
	// O3 requests the expensive optimization pipeline (re-hot traces).
	O3 bool
	// NoNative pins this trace to the bytecode VM (TraceOptions.NoNativeTraces).
	NoNative bool
}

// TraceRunFunc executes a compiled trace on m with at most iterCap full
// loop iterations and returns the completed iterations, the instructions
// retired in the final partial iteration (0 when the trace exited at the
// loop header), and the RIP to resume the block engine at. On return the
// machine's GPR, XMM and Flags are fully materialized; the caller settles
// RIP, InstCount and Cycles from the returned counts.
type TraceRunFunc func(m *Machine, iterCap uint64) (iters, steps uint64, rip uint64)

// TraceCompiler builds a native executor for a recorded trace, or reports
// that the trace cannot be compiled. An error wrapping ErrTraceUnsupported
// means the recording holds an instruction outside the trace tier's set;
// anything else is a failure of the compiler itself.
type TraceCompiler func(*TraceRequest) (TraceRunFunc, error)

// ErrTraceUnsupported marks a trace compile refused because of what was
// recorded (an instruction or operand shape the trace tier does not model).
var ErrTraceUnsupported = errors.New("unsupported in trace")

// TraceAbortReason says why a head was blacklisted.
type TraceAbortReason uint8

// Abort reasons. The first four end a recording, the next two fail its
// compile, the last retires an installed trace.
const (
	// AbortCall: the recorded path reached a direct call.
	AbortCall TraceAbortReason = iota
	// AbortRet: the recorded path reached a return.
	AbortRet
	// AbortIndirect: the recorded path reached an indirect jump or call.
	AbortIndirect
	// AbortTooLong: the path outgrew TraceOptions.MaxInsts or MaxBlocks
	// before closing.
	AbortTooLong
	// AbortUnsupportedOp: the compiler refused a recorded instruction
	// (ErrTraceUnsupported).
	AbortUnsupportedOp
	// AbortCompileError: the compiler failed for any other reason.
	AbortCompileError
	// AbortNoProgress: an installed trace was retired because its runs
	// kept deoptimizing before the first instruction.
	AbortNoProgress
	NumTraceAbortReasons
)

var traceAbortNames = [NumTraceAbortReasons]string{
	"call", "ret", "indirect", "too-long", "unsupported-op", "compile-error", "no-progress",
}

func (r TraceAbortReason) String() string {
	if r < NumTraceAbortReasons {
		return traceAbortNames[r]
	}
	return fmt.Sprintf("abort%d", uint8(r))
}

var traceCompiler atomic.Value // TraceCompiler

// RegisterTraceCompiler installs the trace compiler used by every machine.
// internal/jit registers its lift → opt → VM pipeline from an init
// function, so importing that package enables the trace tier.
func RegisterTraceCompiler(fn TraceCompiler) { traceCompiler.Store(fn) }

func loadTraceCompiler() TraceCompiler {
	v := traceCompiler.Load()
	if v == nil {
		return nil
	}
	return v.(TraceCompiler)
}

// TraceStats is a snapshot of the process-wide trace-tier counters.
type TraceStats struct {
	// Compiled counts successfully compiled traces (O1), CompiledO3 the
	// level-3 recompiles of re-hot traces.
	Compiled, CompiledO3 uint64
	// Aborted counts recordings or compiles that failed, and installed
	// traces that were retired, each blacklisting its head; AbortedBy
	// splits the same count by reason.
	Aborted   uint64
	AbortedBy [NumTraceAbortReasons]uint64
	// Runs counts trace executions, Iters the completed loop iterations
	// across all runs, SideExits the runs that left mid-iteration through
	// a guard or deoptimizing memory access.
	Runs, Iters, SideExits uint64
	// NativeCompiled counts traces whose compiled form runs as host x86-64
	// code rather than the bytecode VM; NativeDeopts counts native runs
	// that finished through any exit other than the loop-header iteration
	// cap (guards, memory deopts, SMC generation checks).
	NativeCompiled, NativeDeopts uint64
	// Links counts trace-to-trace transfers that bypassed block dispatch;
	// LinkInvalidations counts cached links rejected because the chain
	// epoch moved (InvalidateRange) since the link was installed.
	Links, LinkInvalidations uint64
}

var traceCounters struct {
	compiled, compiledO3, runs, iters, sideExits           atomic.Uint64
	nativeCompiled, nativeDeopts, links, linkInvalidations atomic.Uint64
	aborted                                                [NumTraceAbortReasons]atomic.Uint64
}

// ReadTraceStats snapshots the process-wide trace-tier counters.
func ReadTraceStats() TraceStats {
	var by [NumTraceAbortReasons]uint64
	var aborted uint64
	for i := range by {
		by[i] = traceCounters.aborted[i].Load()
		aborted += by[i]
	}
	return TraceStats{
		Compiled:          traceCounters.compiled.Load(),
		CompiledO3:        traceCounters.compiledO3.Load(),
		Aborted:           aborted,
		AbortedBy:         by,
		Runs:              traceCounters.runs.Load(),
		Iters:             traceCounters.iters.Load(),
		SideExits:         traceCounters.sideExits.Load(),
		NativeCompiled:    traceCounters.nativeCompiled.Load(),
		NativeDeopts:      traceCounters.nativeDeopts.Load(),
		Links:             traceCounters.links.Load(),
		LinkInvalidations: traceCounters.linkInvalidations.Load(),
	}
}

// CountTraceNativeCompile and CountTraceNativeDeopt are bumped by the
// registered trace compiler (internal/jit) when it emits a trace as host
// code and when a native run leaves through a deoptimizing exit. They live
// here so the counters stay process-wide next to the rest of the tier's
// stats without a reverse dependency.
func CountTraceNativeCompile() { traceCounters.nativeCompiled.Add(1) }
func CountTraceNativeDeopt()   { traceCounters.nativeDeopts.Add(1) }

// traceEntry is a compiled trace installed on its head block. It dies with
// the block: flushTranslations drops all pages, and InvalidateRange drops
// entries whose recorded span overlaps the invalidated bytes, so a stale
// trace can never be dispatched. Mid-run invalidation is caught by the
// compiled code itself, which re-checks the memory code generation on every
// backedge.
type traceEntry struct {
	run   TraceRunFunc
	costs []float64 // per-step modelled cost, replayed in program order
	T     uint64    // len(costs)
	req   *TraceRequest
	head  *Block
	runs  uint64
	// stalls counts consecutive runs that retired nothing; at
	// traceRetireStalls the trace is retired (runTrace).
	stalls uint32
	o3     bool
	// [lo, hi) spans every recorded instruction, for InvalidateRange.
	lo, hi uint64
	// ctx is the entry context the trace was recorded under: the side-exit
	// RIP whose zero-iteration streak triggered the re-record, or 0 for
	// the head's root trace. Block.selectTrace keys on it.
	ctx uint64
	// links caches side-exit targets that resolved to other compiled trace
	// heads, so linked traces hand off without re-entering block dispatch.
	// Each link is guarded by the chain epoch it was installed under —
	// InvalidateRange bumps the epoch, and a stale link is dropped and
	// re-resolved on next use (counted as a link invalidation).
	links []traceLink
}

// traceRetireStalls is the number of consecutive zero-instruction runs after
// which a trace is retired. A run retires nothing only when the access of the
// head's first instruction deoptimizes (penalized, faulting or watched), and
// 32 in a row means the data does that every time: each further arrival
// would pay a trace entry to execute nothing.
const traceRetireStalls = 32

// maxTraceLinks bounds the per-trace link cache; a trace has only a handful
// of side exits, so a tiny linear-scanned slice beats a map.
const maxTraceLinks = 4

type traceLink struct {
	rip   uint64
	b     *Block
	epoch uint64
}

// traceRecorder accumulates the block path of a trace being recorded.
type traceRecorder struct {
	head    *Block
	headPC  uint64
	ctx     uint64 // entry context the recording was triggered under
	steps   []TraceStep
	pending int // index of an unresolved conditional branch, or -1
	blocks  int
	// While outer is set the recording is re-anchored (note): it is trying
	// to close at the head of the enclosing loop [outerPC, outerEnd], whose
	// path begins at steps[start]. innerEnd is len(steps) at the path's
	// first return to headPC — where it would have closed otherwise — and
	// steps[:innerEnd] is the trace the head gets if the enclosing loop
	// does not close. reanchored stays set so that it is tried once.
	outer      *Block
	outerPC    uint64
	outerEnd   uint64
	start      int
	innerEnd   int
	reanchored bool
}

func startRecording(head *Block, pc, ctx uint64) *traceRecorder {
	return &traceRecorder{head: head, headPC: pc, ctx: ctx, pending: -1}
}

// note observes one dispatch while recording: it resolves the previous
// block's branch direction from the arrived-at pc, closes the trace when
// the path returns to the head, and otherwise appends the block's steps.
// It returns nil when recording ended (closed or aborted).
//
// A back edge to below the head means the recording began on the last
// iteration of the head's loop, left it, and reached the back edge of an
// enclosing loop. Closing at the head then gives a rotated trace of the
// enclosing loop that holds one iteration of the head's own loop and so
// fails its guard on every other. The recording re-anchors instead: it tries
// to close at the enclosing head, where one iteration with the inner loop
// unrolled along the way is a path that stays in its trace. If the path
// leaves the enclosing loop first, or cannot be compiled, recording goes on
// exactly as it would have without re-anchoring.
func (r *traceRecorder) note(m *Machine, b *Block, pc uint64) *traceRecorder {
	if r.pending >= 0 {
		in := r.steps[r.pending].In
		r.steps[r.pending].Taken = pc == uint64(in.Dst.Imm)
		r.pending = -1
	}
	if r.outer != nil {
		closed := pc == r.outerPC
		if closed && r.finish(m, r.outer, r.outerPC, r.steps[r.start:]) == nil {
			return nil
		}
		if r.innerEnd == 0 && pc == r.headPC {
			r.innerEnd = len(r.steps)
		}
		if closed || pc < r.outerPC || pc > r.outerEnd {
			if r.innerEnd > 0 {
				r.closeAt(m, r.innerEnd)
				return nil
			}
			r.outer, r.start = nil, 0
		}
	} else if len(r.steps) > 0 {
		if pc == r.headPC {
			r.closeAt(m, len(r.steps))
			return nil
		}
		if last := r.steps[len(r.steps)-1].In.Addr; pc < r.headPC && pc <= last && !r.reanchored && !b.noTrace {
			if b.selectTrace(r.ctx) != nil {
				// The enclosing loop has its trace, which this path joins
				// at the next arrival there; a trace closed at the head
				// would run through the enclosing head and keep the path
				// from ever entering it. The head stays free to be
				// recorded on another iteration.
				return nil
			}
			r.outer, r.outerPC, r.outerEnd, r.start, r.reanchored = b, pc, last, len(r.steps), true
			b.hot = 0
		}
	}
	if r.blocks++; r.blocks > m.TraceOpts.maxBlocks() || len(r.steps)-r.start+len(b.steps) > m.TraceOpts.maxInsts() {
		r.abort(m, AbortTooLong)
		return nil
	}
	for i := range b.steps {
		st := &b.steps[i]
		r.steps = append(r.steps, TraceStep{In: st.in, Cost: st.cost})
	}
	if len(b.steps) > 0 {
		// The successor of a return or an indirect branch is data-dependent
		// and a call leaves the frame; traces only follow static control
		// flow.
		switch term := b.steps[len(b.steps)-1].in; term.Op {
		case x86.RET:
			r.abort(m, AbortRet)
			return nil
		case x86.JMPIndirect, x86.CALLIndirect:
			r.abort(m, AbortIndirect)
			return nil
		case x86.CALL:
			r.abort(m, AbortCall)
			return nil
		case x86.JCC:
			r.pending = len(r.steps) - 1
		}
	}
	return r
}

// closeAt ends the recording as a trace of its head over steps[:n].
func (r *traceRecorder) closeAt(m *Machine, n int) {
	if err := r.finish(m, r.head, r.headPC, r.steps[:n]); err != nil {
		r.head.abortTrace(compileAbortReason(err))
	}
}

// abort ends a recording whose path cannot go on. A re-anchored recording
// that did come back to its head closes there; any other blacklists the
// head, as the same path would have done without re-anchoring.
func (r *traceRecorder) abort(m *Machine, why TraceAbortReason) {
	if r.outer != nil && r.innerEnd > 0 {
		r.closeAt(m, r.innerEnd)
		return
	}
	r.head.abortTrace(why)
}

// abortTrace blacklists the head so the dispatcher neither re-records it nor
// counts its arrivals, and counts why.
func (b *Block) abortTrace(why TraceAbortReason) {
	b.noTrace = true
	traceCounters.aborted[why].Add(1)
}

// compileAbortReason classifies a trace compiler's error.
func compileAbortReason(err error) TraceAbortReason {
	if errors.Is(err, ErrTraceUnsupported) {
		return AbortUnsupportedOp
	}
	return AbortCompileError
}

// finish compiles the closed path steps and installs it on head; an error
// is the compiler's.
func (r *traceRecorder) finish(m *Machine, head *Block, headPC uint64, steps []TraceStep) error {
	req := &TraceRequest{Head: headPC, Steps: steps, Mem: m.Mem, Cost: m.Cost,
		NoNative: m.TraceOpts.NoNativeTraces}
	run, err := loadTraceCompiler()(req)
	if err != nil {
		return err
	}
	costs := make([]float64, len(steps))
	lo, hi := ^uint64(0), uint64(0)
	for i := range steps {
		costs[i] = steps[i].Cost
		a, e := steps[i].In.Addr, steps[i].In.Addr+uint64(steps[i].In.Len)
		if a < lo {
			lo = a
		}
		if e > hi {
			hi = e
		}
	}
	t := &traceEntry{run: run, costs: costs, T: uint64(len(costs)), req: req,
		head: head, lo: lo, hi: hi, ctx: r.ctx}
	installed, wasEmpty := head.installTrace(t)
	if !installed {
		// All slots taken (another recording won the race within this
		// machine); drop the compile without blacklisting the head.
		return nil
	}
	if wasEmpty {
		m.traced = append(m.traced, head)
	}
	traceCounters.compiled.Add(1)
	return nil
}

// runTrace executes a compiled trace — and any chain of linked traces its
// side exits resolve to — settling the machine's accounting after every run.
// It returns progressed == false only when no trace in the chain retired a
// single instruction (budget headroom below one iteration, or an immediate
// deopt), in which case the caller must execute the head block through the
// block engine instead. Note the asymmetry: once any run made progress, RIP
// has moved, so the caller must re-dispatch from scratch even if a later
// linked trace stalled.
func (m *Machine) runTrace(t *traceEntry, maxInst uint64, n *uint64) (progressed bool, err error) {
	for {
		iterCap := ^uint64(0)
		if maxInst > 0 {
			// Never overshoot the budget: cap whole iterations to the
			// remaining headroom. A partial iteration is delegated to the
			// block engine, which clamps per instruction.
			iterCap = (maxInst - *n) / t.T
			if iterCap == 0 {
				return progressed, nil
			}
		}
		iters, steps, rip := t.run(m, iterCap)
		// Replay modelled cycles in program order: float accumulation does
		// not commute, so the per-step costs are added exactly as the
		// interpreter would. In-trace memory accesses carry no penalty
		// (penalized accesses deoptimize before executing), so this replay
		// is the whole cost.
		costs := t.costs
		cyc := m.Cycles
		for it := uint64(0); it < iters; it++ {
			for _, c := range costs {
				cyc += c
			}
		}
		for j := uint64(0); j < steps; j++ {
			cyc += costs[j]
		}
		m.Cycles = cyc
		retired := iters*t.T + steps
		*n += retired
		m.InstCount += retired
		m.RIP = rip
		traceCounters.runs.Add(1)
		traceCounters.iters.Add(iters)
		if steps != 0 {
			traceCounters.sideExits.Add(1)
		}
		// Selection hint for polymorphic heads: a side exit that retired no
		// complete iteration means the installed trace follows the wrong
		// path for the current data — remember where it bailed so the next
		// head arrival prefers (or records) a trace keyed to that context.
		if iters == 0 && steps != 0 {
			m.traceCtx = rip
		} else if iters > 0 {
			m.traceCtx = 0
		}
		t.runs++
		if !t.o3 && t.runs >= m.TraceOpts.o3Threshold() {
			t.o3 = true // one shot, even if the recompile fails
			o3req := *t.req
			o3req.O3 = true
			if run, err := loadTraceCompiler()(&o3req); err == nil {
				t.run = run
				traceCounters.compiledO3.Add(1)
			}
		}
		if maxInst > 0 && *n >= maxInst {
			return true, fmt.Errorf("emu: instruction budget of %d exhausted at %#x", maxInst, m.RIP)
		}
		if retired == 0 {
			if t.stalls++; t.stalls >= traceRetireStalls {
				t.head.retireTrace(t)
			}
			return progressed, nil
		}
		t.stalls = 0
		progressed = true
		// Trace-to-trace linking: if the exit RIP is another compiled trace
		// head, hand off directly instead of bouncing through block
		// dispatch per outer-loop iteration.
		next := t.linkTo(m, rip)
		if next == nil || next == t {
			return true, nil
		}
		traceCounters.links.Add(1)
		t = next
	}
}

// linkTo resolves the trace to hand off to after a run left at rip, using
// the per-exit link cache when its epoch is current, else re-resolving
// through the page table. It never translates new code and returns nil when
// rip is not a compiled trace head or the world changed under the trace
// (code generation moved — the dispatcher must flush first).
func (t *traceEntry) linkTo(m *Machine, rip uint64) *traceEntry {
	if m.Mem.codeGen.Load() != m.cacheGen {
		return nil
	}
	for i := range t.links {
		l := &t.links[i]
		if l.rip != rip {
			continue
		}
		if l.epoch == m.chainEpoch {
			return l.b.selectTrace(m.traceCtx)
		}
		// Stale epoch: the pages the link was resolved against may have
		// been invalidated. Drop it and fall through to re-resolve.
		traceCounters.linkInvalidations.Add(1)
		t.links[i] = t.links[len(t.links)-1]
		t.links = t.links[:len(t.links)-1]
		break
	}
	pg := m.pages[rip>>pageShift]
	if pg == nil {
		return nil
	}
	b := pg.blocks[rip&pageMask]
	if b == nil {
		return nil
	}
	nt := b.selectTrace(m.traceCtx)
	if nt == nil {
		return nil
	}
	if len(t.links) < maxTraceLinks {
		t.links = append(t.links, traceLink{rip: rip, b: b, epoch: m.chainEpoch})
	}
	return nt
}
