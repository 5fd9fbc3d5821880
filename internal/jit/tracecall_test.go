package jit

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// Tests for traces that run through calls: the recorder follows a direct
// call into its callee and back out through the matching return, and the
// trace lowers CALL, RET, PUSH and POP onto its deoptimizing stack accesses.
// Every case holds the interpreter, the block engine, the trace VM and
// native traces to the same state (fpDiffAll); the batteries drive budget
// cutoffs, faults, stack overflows and self-modification through the callee.

// callDriver emits a counted loop of n iterations around call, advancing
// rdi and rsi by one double per iteration, then RET. Leaves go after it.
func callDriver(b *asm.Builder, n int64, call func()) {
	b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(n, 8))
	loop := b.NewLabel()
	b.Bind(loop)
	call()
	b.I(x86.ADD, x86.R64(x86.RDI), x86.Imm(8, 8))
	b.I(x86.ADD, x86.R64(x86.RSI), x86.Imm(8, 8))
	b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, loop)
	b.Ret()
}

// sseLeaf is the shape of direct_elem: straight-line scalar loads, two
// operations and a store of the result.
func sseLeaf(b *asm.Builder) {
	b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBD(8, x86.RDI, 0))
	b.I(x86.MOVSD_X, x86.X(x86.XMM1), x86.MemBD(8, x86.RDI, 8))
	b.I(x86.ADDSD, x86.X(x86.XMM0), x86.X(x86.XMM1))
	b.I(x86.MULSD, x86.X(x86.XMM0), x86.MemBD(8, x86.RDI, 16))
	b.I(x86.MOVSD_X, x86.MemBD(8, x86.RSI, 0), x86.X(x86.XMM0))
	b.Ret()
}

// loopLeaf is the shape of flat_elem: a counted inner loop over three
// inputs, then the store.
func loopLeaf(b *asm.Builder) {
	b.I(x86.PXOR, x86.X(x86.XMM0), x86.X(x86.XMM0))
	b.I(x86.MOV, x86.R64(x86.R8), x86.Imm(3, 8))
	inner := b.NewLabel()
	b.Bind(inner)
	b.I(x86.ADDSD, x86.X(x86.XMM0), x86.MemBIS(8, x86.RDI, x86.R8, 8, -8))
	b.I(x86.SUB, x86.R64(x86.R8), x86.Imm(1, 8))
	b.Jcc(x86.CondNE, inner)
	b.I(x86.MOVSD_X, x86.MemBD(8, x86.RSI, 0), x86.X(x86.XMM0))
	b.Ret()
}

// savingLeaf is the shape of sorted_elem: it saves two callee-saved
// registers, works in them, and restores them.
func savingLeaf(b *asm.Builder) {
	b.I(x86.PUSH, x86.R64(x86.RBX))
	b.I(x86.PUSH, x86.R64(x86.R12))
	b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RDI, 0))
	b.I(x86.MOV, x86.R64(x86.R12), x86.MemBD(8, x86.RDI, 8))
	b.I(x86.ADD, x86.R64(x86.RBX), x86.R64(x86.R12))
	b.I(x86.MOV, x86.MemBD(8, x86.RSI, 0), x86.R64(x86.RBX))
	b.I(x86.POP, x86.R64(x86.R12))
	b.I(x86.POP, x86.R64(x86.RBX))
	b.Ret()
}

// callData allocates one region of n+2 input doubles followed by n output
// slots, points rdi at the inputs and rsi at the outputs, and gives rbx and
// r12 values a leaf must preserve.
func callData(n int) func(m *emu.Machine, mem *emu.Memory) *emu.Region {
	return func(m *emu.Machine, mem *emu.Memory) *emu.Region {
		r := mem.Alloc((2*n+2)*8, 64, "data")
		for i := 0; i < n+2; i++ {
			if err := mem.WriteU(r.Start+uint64(8*i), 8, math.Float64bits(1+0.25*float64(i))); err != nil {
				panic(err)
			}
		}
		m.GPR[x86.RDI] = r.Start
		m.GPR[x86.RSI] = r.Start + uint64(8*(n+2))
		m.GPR[x86.RBX], m.GPR[x86.R12] = 0x1111, 0x2222
		return r
	}
}

// callChain builds a driver whose callee calls the next, depth functions
// deep: the innermost call opens frame number depth of a recording.
func callChain(depth int) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		fns := make([]asm.Label, depth)
		for i := range fns {
			fns[i] = b.NewLabel()
		}
		callDriver(b, 100, func() { b.CallLabel(fns[0]) })
		for i, fn := range fns {
			b.Bind(fn)
			b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(int64(i+1), 8))
			if i+1 < depth {
				b.CallLabel(fns[i+1])
			}
			b.Ret()
		}
	}
}

// tracedRun runs code once on native traces and returns the trace counters
// before and after.
func tracedRun(t *testing.T, code []byte, setup func(m *emu.Machine, mem *emu.Memory) *emu.Region) (before, after emu.TraceStats) {
	t.Helper()
	before = emu.ReadTraceStats()
	if st := fpRun(t, code, fpEngines[3].set, 0, 1, setup); st.errMsg != "" {
		t.Fatalf("traced run: %s", st.errMsg)
	}
	return before, emu.ReadTraceStats()
}

// TestTraceCallCases holds every call shape the recorder follows, and the
// ones it refuses, to the interpreter's state on all four engines.
func TestTraceCallCases(t *testing.T) {
	const n = 200
	cases := []struct {
		name  string
		build func(b *asm.Builder)
		// compiled is the number of traces the native run must compile,
		// callAborts and retAborts the aborts it must count. Every return
		// site is a backward target, since the callees lie above their
		// callers: the driver's is blacklisted by a call abort once its
		// recording re-anchors at the loop head, and a return site inside a
		// callee by a return abort.
		compiled, callAborts, retAborts int
	}{
		{name: "sse leaf", compiled: 1, callAborts: 1, build: func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, n, func() { b.CallLabel(leaf) })
			b.Bind(leaf)
			sseLeaf(b)
		}},
		// The inner loop's first backward arrival is its last iteration,
		// so its own recording runs into the leaf's RET with no call open;
		// the driver's trace records the inner loop unrolled.
		{name: "loop leaf", compiled: 1, callAborts: 1, retAborts: 1, build: func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, n, func() { b.CallLabel(leaf) })
			b.Bind(leaf)
			loopLeaf(b)
		}},
		{name: "saving leaf", compiled: 1, callAborts: 1, build: func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, n, func() { b.CallLabel(leaf) })
			b.Bind(leaf)
			savingLeaf(b)
		}},
		{name: "nested calls", compiled: 1, callAborts: 1, retAborts: 1, build: func(b *asm.Builder) {
			outer, inner := b.NewLabel(), b.NewLabel()
			callDriver(b, n, func() { b.CallLabel(outer) })
			b.Bind(outer)
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
			b.CallLabel(inner)
			b.I(x86.XOR, x86.R64(x86.RAX), x86.Imm(0x55, 8))
			b.Ret()
			b.Bind(inner)
			b.I(x86.LEA, x86.R64(x86.RAX), x86.MemBIS(8, x86.RAX, x86.RAX, 2, 7))
			sseLeaf(b)
		}},
		{name: "depth at the cap", compiled: 1, callAborts: 1, retAborts: emu.MaxTraceFrames - 1, build: callChain(emu.MaxTraceFrames)},
		{name: "depth over the cap", compiled: 0, callAborts: 2, retAborts: emu.MaxTraceFrames, build: callChain(emu.MaxTraceFrames + 1)},
		// The callee drops its return address and branches to the loop
		// head: the path arrives there with a frame open.
		{name: "callee reaches the head", compiled: 0, callAborts: 1, build: func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(n, 8))
			loop, leaf := b.NewLabel(), b.NewLabel()
			b.Bind(loop)
			b.CallLabel(leaf)
			b.Bind(leaf)
			b.I(x86.ADD, x86.R64(x86.RSP), x86.Imm(8, 8))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
			b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
			b.Jcc(x86.CondNE, loop)
			b.Ret()
		}},
	}
	for _, tc := range cases {
		code := assembleAt(t, 0x5000, tc.build)
		fpDiffAll(t, tc.name, code, 0, 1, callData(n))
		before, after := tracedRun(t, code, callData(n))
		if got := after.Compiled - before.Compiled; got != uint64(tc.compiled) {
			t.Errorf("%s: compiled %d traces, want %d (aborts by reason %v)", tc.name, got, tc.compiled, after.AbortedBy)
		}
		if got := after.AbortedBy[emu.AbortCall] - before.AbortedBy[emu.AbortCall]; got != uint64(tc.callAborts) {
			t.Errorf("%s: %d call aborts, want %d", tc.name, got, tc.callAborts)
		}
		if got := after.AbortedBy[emu.AbortRet] - before.AbortedBy[emu.AbortRet]; got != uint64(tc.retAborts) {
			t.Errorf("%s: %d return aborts, want %d", tc.name, got, tc.retAborts)
		}
	}
}

// TestTraceCallNativeAtDriverHead pins the point of following calls: the
// driver loop around a straight-line SSE leaf runs as one native trace that
// spans caller and callee and stays in its loop.
func TestTraceCallNativeAtDriverHead(t *testing.T) {
	const n = 200
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		leaf := b.NewLabel()
		callDriver(b, n, func() { b.CallLabel(leaf) })
		b.Bind(leaf)
		sseLeaf(b)
	})
	before, after := tracedRun(t, code, callData(n))
	if got := after.Compiled - before.Compiled; got != 1 {
		t.Fatalf("compiled %d traces, want the driver's one (aborts by reason %v)", got, after.AbortedBy)
	}
	if got := after.NativeCompiled - before.NativeCompiled; nativeTraceOK && got != 1 {
		t.Fatalf("%d native traces, want 1", got)
	}
	runs, iters := after.Runs-before.Runs, after.Iters-before.Iters
	if runs == 0 || iters/runs <= 50 {
		t.Fatalf("%d iterations over %d runs, want more than 50 per run", iters, runs)
	}
}

// TestTraceCallRetGuard: the callee overwrites its own return address on one
// iteration, so the RET guard leaves the trace before the return and the
// block engine returns to the substituted address.
func TestTraceCallRetGuard(t *testing.T) {
	const n = 200
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		loop, post, alt, leaf := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.MovLabel(x86.R9, alt)
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(n, 8))
		b.Bind(loop)
		b.CallLabel(leaf)
		b.Bind(post)
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
		b.Bind(alt)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(100, 8))
		b.Jmp(post)
		b.Bind(leaf)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.I(x86.MOV, x86.R64(x86.R10), x86.MemBD(8, x86.RSP, 0))
		b.I(x86.CMP, x86.R64(x86.RCX), x86.Imm(7, 8))
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondE, Dst: x86.R64(x86.R10), Src: x86.R64(x86.R9)})
		b.I(x86.MOV, x86.MemBD(8, x86.RSP, 0), x86.R64(x86.R10))
		b.Ret()
	})
	ref := fpDiffAll(t, "ret guard", code, 0, 1, callData(n))
	before, after := tracedRun(t, code, callData(n))
	if ref.gpr[x86.RAX] != uint64(n*(n+1)/2+100) {
		t.Fatalf("rax = %d: the substituted return was not taken once", ref.gpr[x86.RAX])
	}
	if after.Compiled == before.Compiled {
		t.Fatalf("no trace compiled (aborts by reason %v)", after.AbortedBy)
	}
	// One exit at the guard, one at the loop's end.
	if got := after.SideExits - before.SideExits; got < 2 {
		t.Fatalf("%d side exits, want the RET guard's and the loop end's", got)
	}
}

// TestTraceCallBudgetSweep cuts the run after every instruction, inside and
// outside the callee, over a short driver whose trace is recorded on the
// third iteration and runs the last three: two complete ones, and one that
// leaves through the loop's guard.
func TestTraceCallBudgetSweep(t *testing.T) {
	const n = 6
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		leaf := b.NewLabel()
		callDriver(b, n, func() { b.CallLabel(leaf) })
		b.Bind(leaf)
		savingLeaf(b)
	})
	full := fpRun(t, code, fpEngines[0].set, 0, 1, callData(n))
	for budget := uint64(1); budget <= full.instCount+1; budget++ {
		fpDiffAll(t, "call budget", code, budget, 1, callData(n))
	}
}

// TestTraceCallDeopts drives the callee's accesses off their regions while
// the driver's trace runs: a load past the end of the inputs, a PUSH below
// the stack's mapping, and a store into the callee's own code.
func TestTraceCallDeopts(t *testing.T) {
	t.Run("LoadFault", func(t *testing.T) {
		code := assembleAt(t, 0x5000, func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, 1000, func() { b.CallLabel(leaf) })
			b.Bind(leaf)
			sseLeaf(b)
		})
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			out := mem.Alloc(1000*8, 64, "out")
			in := mem.Alloc(64*8, 64, "in") // the loop wants 1002 inputs
			m.GPR[x86.RDI], m.GPR[x86.RSI] = in.Start, out.Start
			return out
		}
		if ref := fpDiffAll(t, "callee load fault", code, 0, 1, setup); ref.errMsg == "" {
			t.Fatal("expected a fault from the reference run")
		}
	})
	t.Run("PushFault", func(t *testing.T) {
		// Each iteration leaks one stack slot, so the callee's second PUSH
		// is the first access below the mapping.
		code := assembleAt(t, 0x5000, func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, 1000, func() {
				b.I(x86.PUSH, x86.R64(x86.RCX))
				b.CallLabel(leaf)
			})
			b.Bind(leaf)
			savingLeaf(b)
		})
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			stack, err := mem.Map(0x200000, 0x400, "stack")
			if err != nil {
				panic(err)
			}
			callData(1000)(m, mem)
			m.GPR[x86.RSP] = stack.End() - 64
			return stack
		}
		ref := fpDiffAll(t, "callee push fault", code, 0, 1, setup)
		if ref.errMsg == "" {
			t.Fatal("expected a stack fault from the reference run")
		}
	})
	t.Run("SMCStore", func(t *testing.T) {
		// The callee stores through a table of addresses; one entry points
		// at padding after the code, so one iteration's store is a write to
		// watched code (of the bytes already there).
		const n = 100
		var patch uint64
		build := func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, n, func() { b.CallLabel(leaf) })
			b.Bind(leaf)
			b.I(x86.MOV, x86.R64(x86.R8), x86.MemBIS(8, x86.R10, x86.RCX, 8, 0))
			b.I(x86.MOV, x86.MemBD(8, x86.R8, 0), x86.R64(x86.R11))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
			b.Ret()
		}
		code := append(assembleAt(t, 0x5000, build), make([]byte, 16)...)
		patch = 0x5000 + uint64(len(code)) - 8
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			r := mem.Alloc((n+2)*8, 64, "table")
			for i := 0; i <= n; i++ {
				to := r.Start + uint64(8*(n+1)) // the data slot
				if i == 20 {
					to = patch
				}
				if err := mem.WriteU(r.Start+uint64(8*i), 8, to); err != nil {
					panic(err)
				}
			}
			m.GPR[x86.R10], m.GPR[x86.R11] = r.Start, 0
			return r
		}
		before := emu.ReadTraceStats()
		ref := fpDiffAll(t, "callee smc store", code, 0, 1, setup)
		if ref.gpr[x86.RAX] != n*(n+1)/2 {
			t.Fatalf("loop did not complete: rax=%d", ref.gpr[x86.RAX])
		}
		if emu.ReadTraceStats().Iters == before.Iters {
			t.Fatal("no trace iterations ran")
		}
	})
}

// TestTraceCallMisalignedStack runs the driver around savingLeaf with a stack
// pointer 4 bytes off 8-byte alignment, placed so that the CALL and RET, the
// PUSH and POP of rbx, or those of r12 touch a slot that splits a cache line.
// The emulator charges no memory penalty for a stack access, so neither may
// a trace, natively or in the VM.
func TestTraceCallMisalignedStack(t *testing.T) {
	const n = 200
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		leaf := b.NewLabel()
		callDriver(b, n, func() { b.CallLabel(leaf) })
		b.Bind(leaf)
		savingLeaf(b)
	})
	// Call pushes the return sentinel at rsp-8, the driver's CALL at
	// rsp-16, and the leaf rbx at rsp-24 and r12 at rsp-32; each of these
	// offsets puts one of them at 60 mod 64.
	for _, off := range []uint64{12, 20, 28} {
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			stack := mem.Alloc(0x1000, 64, "stack")
			callData(n)(m, mem)
			m.GPR[x86.RSP] = stack.End() - 64 + off
			return stack
		}
		desc := fmt.Sprintf("split stack slot, rsp = 64k+%d", off)
		ref := fpDiffAll(t, desc, code, 0, 1, setup)
		if ref.errMsg != "" {
			t.Fatalf("%s: %s", desc, ref.errMsg)
		}
		before, after := tracedRun(t, code, setup)
		if after.Compiled == before.Compiled {
			t.Fatalf("%s: no trace compiled (aborts by reason %v)", desc, after.AbortedBy)
		}
	}
}
