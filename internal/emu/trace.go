package emu

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/x86"
)

// This file implements the emulator side of the tracing JIT tier. The block
// engine counts backward-edge dispatches per target block; at the hot
// threshold the target becomes a trace head and the dispatcher records the
// concrete path of translated blocks it executes until the path closes back
// at the head. The path follows direct calls into their callees and back
// out through the matching returns, so a loop that calls a leaf records as
// one trace of caller and callee. The recorded superblock is handed to a
// registered trace compiler (internal/jit wires one through lift → opt → a
// bytecode VM), and subsequent arrivals at the head run the compiled trace
// natively. Every off-trace branch and every abnormal memory access is a
// side exit that materializes the full architectural state — registers,
// flags, RIP, InstCount and Cycles — and falls back to the block engine.
// A memory penalty is not abnormal: the compiled code logs each access that
// may carry one, and runTrace charges it in the interpreter's order.
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
// loop header), the RIP to resume the block engine at, and the run's
// penalty log. On return the machine's GPR, XMM and Flags are fully
// materialized; the caller settles RIP, InstCount and Cycles from the
// returned counts and the log, which is nil for a trace without an access
// that can log.
type TraceRunFunc func(m *Machine, iterCap uint64) (iters, steps, rip uint64, pens *TracePenalties)

// TraceSite is the static side of one memory access of a compiled trace:
// the step that performs it, its width in bytes and its direction.
type TraceSite struct {
	Step  uint32
	Size  uint8
	Write bool
}

// TracePenalties is the penalty log of one trace run. Log holds three words
// per access that may have carried a memory penalty — the iteration, the
// index of its site in Sites, and the guest address — in the order the
// accesses ran. The test that logs an access is conservative: an entry whose
// penalty is zero adds nothing. An access that deoptimized is not logged; the
// block engine charges it when it re-executes the instruction. The log
// belongs to the compiled trace and is valid until its next run.
type TracePenalties struct {
	Log   []uint64
	Sites []TraceSite
}

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
	// AbortCall: the recorded path reached a direct call it cannot follow
	// (deeper than MaxTraceFrames, or during a re-anchored recording), or
	// came back to the head with a call still open (recursion, or a callee
	// that dropped its return address).
	AbortCall TraceAbortReason = iota
	// AbortRet: the recorded path reached a return with no call open, or a
	// return that did not come back to its call's return address.
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
	run TraceRunFunc
	// costs is the modelled cost of every step; replay adds them and the
	// logged penalties to Cycles exactly as the interpreter would.
	costs []float64
	T     uint64 // len(costs)
	// qExp is the biased exponent of the binade q was computed for (0: not
	// yet), and q is one iteration's cost in ulps of that binade, or noQ
	// where replay must add step by step (setBinade). The entry belongs
	// to one Machine, so the cache needs no lock.
	qExp, q uint64
	// sum is the float sum of costs, an estimate of one iteration's cost
	// (newBinade), computed on first use (0: not yet).
	sum float64
	// memo holds the counts of ulps of recent penalties in the binade of
	// biased exponent memoExp (binadeIters).
	memo    [8]penMemo
	memoExp uint64
	req     *TraceRequest
	head    *Block
	runs    uint64
	// stalls counts consecutive runs that retired nothing; at
	// traceRetireStalls the trace is retired (runTrace).
	stalls uint32
	o3     bool
	// [lo, hi) spans every recorded instruction, for InvalidateRange. A
	// trace through a call spans the caller, the callee and whatever lies
	// between them: the span is a superset of the recorded bytes, which can
	// only over-invalidate.
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

// penMemo is the count r of ulps of the penalty of bits key-1, or noFit
// where it ties or is too large; key is 0 in an empty slot.
type penMemo struct{ key, r uint64 }

// noFit is a count larger than any binade has room for.
const noFit = 1 << 60

// traceRetireStalls is the number of consecutive zero-instruction runs after
// which a trace is retired. A run retires nothing only when the access of the
// head's first instruction deoptimizes (faulting, watched, or a misaligned
// MOVAPD), and 32 in a row means the data does that every time: each further
// arrival would pay a trace entry to execute nothing.
const traceRetireStalls = 32

// maxTraceLinks bounds the per-trace link cache; a trace has only a handful
// of side exits, so a tiny linear-scanned slice beats a map.
const maxTraceLinks = 4

type traceLink struct {
	rip   uint64
	b     *Block
	epoch uint64
}

// MaxTraceFrames caps the calls a recording follows at once; a call nested
// deeper aborts it with AbortCall.
const MaxTraceFrames = 4

// traceRecorder accumulates the block path of a trace being recorded.
type traceRecorder struct {
	head    *Block
	headPC  uint64
	ctx     uint64 // entry context the recording was triggered under
	steps   []TraceStep
	pending int // index of an unresolved conditional branch, or -1
	blocks  int
	// frames[:depth] holds the return address of every call the path is
	// inside, innermost last. After a return pops one, returning is set and
	// the next dispatch must arrive at retTo.
	frames    [MaxTraceFrames]uint64
	depth     int
	retTo     uint64
	returning bool
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
//
// Inside a call (a frame open) the path is the callee's: it neither closes
// nor re-anchors, and a loop of the callee is recorded unrolled, bounded by
// MaxInsts and MaxBlocks. Arriving at the head there means the path cannot
// close with its frames balanced.
func (r *traceRecorder) note(m *Machine, b *Block, pc uint64) *traceRecorder {
	if r.pending >= 0 {
		in := r.steps[r.pending].In
		r.steps[r.pending].Taken = pc == uint64(in.Dst.Imm)
		r.pending = -1
	}
	if r.returning {
		r.returning = false
		if pc != r.retTo {
			r.abort(m, AbortRet)
			return nil
		}
	}
	if r.depth > 0 {
		if pc == r.headPC {
			r.abort(m, AbortCall)
			return nil
		}
	} else if r.outer != nil {
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
		// The successor of an indirect branch is data-dependent; traces only
		// follow static control flow. A return is followed back to the call
		// it matches, where the trace guards the popped address.
		switch term := b.steps[len(b.steps)-1].in; term.Op {
		case x86.RET:
			if r.depth == 0 {
				r.abort(m, AbortRet)
				return nil
			}
			r.depth--
			r.retTo, r.returning = r.frames[r.depth], true
		case x86.JMPIndirect, x86.CALLIndirect:
			r.abort(m, AbortIndirect)
			return nil
		case x86.CALL:
			if r.outer != nil || r.depth == MaxTraceFrames {
				r.abort(m, AbortCall)
				return nil
			}
			r.frames[r.depth] = term.Addr + uint64(term.Len)
			r.depth++
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
		iters, steps, rip, pens := t.run(m, iterCap)
		var log []uint64
		var sites []TraceSite
		if pens != nil && m.Cost != nil { // without a model the block engine charges no penalty either
			log, sites = pens.Log, pens.Sites
		}
		m.Cycles = t.replay(m.Cycles, iters, steps, log, sites, m.Cost)
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

// noQ marks a binade in which whole iterations must be added step by step.
const noQ = ^uint64(0)

// replayIters returns cyc after iters whole iterations of the trace that
// logged no penalty: bit for bit what adding t.costs in program order iters
// times gives, by the per-binade rule of replay.
func (t *traceEntry) replayIters(cyc float64, iters uint64) float64 {
	const mant = 1<<52 - 1
	for iters > 0 {
		if bits := math.Float64bits(cyc); iters > 1 && cyc >= 1 && bits>>52 < 0x7ff {
			q := t.q
			if exp := bits >> 52; exp != t.qExp {
				q = t.newBinade(cyc, exp, 0)
			}
			if q != noQ {
				n := iters
				if q > 0 {
					n = min(n, (1<<53-1-(bits&mant|1<<52))/q)
				}
				if n > 0 {
					cyc = math.Float64frombits(bits + n*q)
					if iters -= n; iters == 0 {
						break
					}
				}
			}
		}
		for _, c := range t.costs {
			cyc += c
		}
		iters--
	}
	return cyc
}

// replay returns cyc after a trace run of iters whole iterations and steps
// more with the penalty log (log, sites) of emu.TracePenalties, bit for bit
// what the block engine adds: every step's cost, each followed by
// cost.MemPenalty of the step's logged accesses in access order. It takes
// O(T) per binade and O(1) per logged access instead of O(iters×T).
//
// Inside one binade [2^k, 2^(k+1)) the doubles are the multiples of
// ulp = 2^(k-52), so for an addend c ≥ 0 whose c/ulp is not a half-integer,
// fl(cyc+c) = cyc + round(c/ulp)·ulp, as long as that sum stays in the
// binade. One iteration then adds Q = Σ q_j ulps plus one rounded count per
// logged penalty, whatever cyc is, and because the partial sums only rise,
// whole iterations add their counts exactly while the total stays
// ≤ 2^(k+1) − ulp. Everything else goes step by step, as the interpreter
// adds: the iteration that crosses into the next binade, a binade in which a
// step cost or a penalty ties (0.5 once cyc ≥ 2^52), cyc < 1, a lone
// iteration that would pay for computing Q without saving anything, and the
// partial iteration of a side exit.
func (t *traceEntry) replay(cyc float64, iters, steps uint64, log []uint64, sites []TraceSite, cost *CostModel) float64 {
	for it := uint64(0); it < iters; {
		if len(log) == 0 || log[0] > it {
			next := iters
			if len(log) > 0 {
				next = min(next, log[0])
			}
			cyc, it = t.replayIters(cyc, next-it), next
			continue
		}
		var n uint64
		if cyc, n, log = t.binadeIters(cyc, it, iters, log, sites, cost); n == 0 {
			cyc, log = t.stepIter(cyc, it, t.T, log, sites, cost)
			n = 1
		}
		it += n
	}
	cyc, _ = t.stepIter(cyc, iters, steps, log, sites, cost)
	return cyc
}

// newBinade returns one iteration's cost in ulps of the binade of biased
// exponent exp that holds cyc, where t.q is for another binade, or noQ.
// Computing it takes a pass over the steps, and buys nothing when one
// iteration, with pen more for its logged penalties, already reaches the top
// of the binade — as every iteration does in the low binades that a run
// starting from Cycles = 0 climbs through; then t.q stays as it is.
func (t *traceEntry) newBinade(cyc float64, exp uint64, pen float64) uint64 {
	if t.sum == 0 {
		for _, c := range t.costs {
			t.sum += c
		}
	}
	if cyc+t.sum+pen >= math.Float64frombits((exp+1)<<52) {
		return noQ
	}
	t.setBinade(exp)
	return t.q
}

// binadeIters adds to cyc as many whole iterations, from the logged
// iteration it on, as the per-binade rule covers, and returns the sum, how
// many it added — 0 where the rule does not hold or the first iteration
// leaves the binade — and the log past their entries.
func (t *traceEntry) binadeIters(cyc float64, it, iters uint64, l []uint64, sites []TraceSite, cost *CostModel) (float64, uint64, []uint64) {
	const mant = 1<<52 - 1
	bits := math.Float64bits(cyc)
	exp := bits >> 52
	if !(cyc >= 1) || exp >= 0x7ff {
		return cyc, 0, l
	}
	q := t.q
	if exp != t.qExp {
		q = t.newBinade(cyc, exp, penaltiesOf(l, it, sites, cost))
	}
	if q == noQ {
		return cyc, 0, l
	}
	// Whole iterations it..it+n-1 add n·Q plus the counts of their logged
	// accesses. The partial sums only rise, so they stay in the binade as
	// long as the total at the end of the last of them does. One pass over
	// the log finds the first iteration that leaves the binade or logged a
	// tie: nmax bounds the iterations that Q alone lets fit, and lim the
	// counts that the accesses up to iteration cur may add.
	room := uint64(1<<53-1) - (bits&mant | 1<<52)
	nmax := iters - it
	if q > 0 {
		nmax = min(nmax, room/q)
	}
	if nmax == 0 {
		return cyc, 0, l
	}
	if t.memoExp != exp {
		t.memo, t.memoExp = [8]penMemo{}, exp
	}
	var pen, before uint64 // counts of the entries walked, and of those before iteration cur
	cur, start, j, lim := it, 0, 0, room-q
	fits := true
	for ; j < len(l) && l[j] < iters; j += 3 {
		if l[j] != cur {
			cur, before, start = l[j], pen, j
			if cur-it >= nmax {
				fits = false
				break
			}
			lim = room - (cur-it+1)*q
		}
		// A run's penalties take a handful of values; rounding each costs
		// more than looking its count up.
		s := &sites[l[j+1]]
		p := cost.MemPenalty(l[j+2], int(s.Size), s.Write)
		b := math.Float64bits(p)
		e := &t.memo[(b*0x9E3779B97F4A7C15)>>61]
		if e.key != b+1 {
			r, ok := ulps(p, exp)
			if !ok {
				r = noFit
			}
			*e = penMemo{key: b + 1, r: r}
		}
		if pen += e.r; pen > lim {
			fits = false
			break
		}
	}
	if !fits { // add the iterations before cur
		n := cur - it
		if q > 0 {
			n = min(n, (room-before)/q)
		}
		return math.Float64frombits(bits + n*q + before), n, l[start:]
	}
	n := iters - it
	if q > 0 {
		n = min(n, (room-pen)/q)
	}
	return math.Float64frombits(bits + n*q + pen), n, l[j:]
}

// stepIter adds steps 0..n-1 of iteration it one at a time, each followed by
// the penalties of its logged accesses, and returns the log past them. An
// entry of iteration it at step n or later belongs to the instruction the
// run deoptimized on, which the block engine re-executes and charges; it is
// left behind.
func (t *traceEntry) stepIter(cyc float64, it, n uint64, log []uint64, sites []TraceSite, cost *CostModel) (float64, []uint64) {
	for j, c := range t.costs[:n] {
		cyc += c
		for len(log) > 0 && log[0] == it && int(sites[log[1]].Step) <= j {
			s := &sites[log[1]]
			cyc += cost.MemPenalty(log[2], int(s.Size), s.Write)
			log = log[3:]
		}
	}
	return cyc, log
}

// penaltiesOf sums the penalties iteration it logged, for an estimate.
func penaltiesOf(log []uint64, it uint64, sites []TraceSite, cost *CostModel) float64 {
	var p float64
	for ; len(log) > 0 && log[0] == it; log = log[3:] {
		s := &sites[log[1]]
		p += cost.MemPenalty(log[2], int(s.Size), s.Write)
	}
	return p
}

// setBinade computes t.q for the binade of biased exponent exp: the rounded
// cost of one iteration in ulps of that binade, or noQ if a step cost is
// negative, not finite, a tie, or too large for the binade.
func (t *traceEntry) setBinade(exp uint64) {
	t.qExp, t.q = exp, noQ
	var q uint64
	for _, c := range t.costs {
		r, ok := ulps(c, exp)
		if !ok {
			return
		}
		if q += r; q >= 1<<53 {
			return
		}
	}
	t.q = q
}

// ulps returns c/ulp rounded to the nearest integer, where ulp = 2^(exp-1075)
// is the spacing of the doubles in the binade of biased exponent exp ≥ 1023
// (a binade at or above 1), or false if c/ulp is a tie, negative, not
// finite, or not below 2^53. Scaling by the power of two 1/ulp ≤ 2^52 is
// exact wherever the result can reach 1/2, so the rounding decision is too;
// ulps is small enough to inline into the per-access loop of binadeIters.
func ulps(c float64, exp uint64) (uint64, bool) {
	x := c * math.Float64frombits((2098-exp)<<52) // 2^(1075-exp)
	if !(x >= 0 && x < 1<<53) {
		return 0, false
	}
	r := int64(x) // one instruction, where a conversion to uint64 branches
	if frac := x - float64(r); frac >= 0.5 {
		if frac == 0.5 {
			return 0, false
		}
		r++
	}
	return uint64(r), true
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
