package jit

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/crosstest"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// Tests for the native trace backend, trace-to-trace linking, and
// polymorphic trace selection. The bytecode VM (NoNativeTraces) is the A/B
// reference throughout: the native code must be bit-identical to it, and it
// in turn is differentially pinned against the interpreter.

// vmOpts pins traces to the bytecode VM for A/B runs.
var vmOpts = emu.TraceOptions{HotThreshold: 1, O3Threshold: 4, NoNativeTraces: true}

func runSnippetVM(t *testing.T, code []byte, budget uint64, setup func(m *emu.Machine, mem *emu.Memory)) traceState {
	t.Helper()
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	m.Traces = true
	m.TraceOpts = vmOpts
	if setup != nil {
		setup(m, mem)
	}
	_, err := m.Call(0x5000, emu.CallArgs{}, budget)
	return snapshot(m, err)
}

// TestTraceNativeEngages proves the loop kernel actually runs as host code:
// the native-compile counter moves, the final guard exit is counted as a
// native deopt, and the state matches the interpreter bit for bit.
func TestTraceNativeEngages(t *testing.T) {
	if !nativeTraceOK {
		t.Skip("no native trace backend on this platform")
	}
	before := emu.ReadTraceStats()
	code := assembleAt(t, 0x5000, traceLoop(10_000))
	ref := runSnippet(t, code, modeInterp, 0, nil)
	got := runSnippet(t, code, modeTraces, 0, nil)
	diffStates(t, "native loop", ref, got, modeInterp, modeTraces)
	after := emu.ReadTraceStats()
	if after.NativeCompiled == before.NativeCompiled {
		t.Fatalf("loop kernel did not compile natively: %+v", after)
	}
	if after.NativeDeopts == before.NativeDeopts {
		t.Fatalf("final guard exit was not counted as a native deopt: %+v", after)
	}
}

// TestTraceNativeVsVMDifferential runs the generated corpus with traces
// pinned to the bytecode VM and with the native backend, and demands
// bit-identical state — the direct A/B for the native tier.
func TestTraceNativeVsVMDifferential(t *testing.T) {
	if !nativeTraceOK {
		t.Skip("no native trace backend on this platform")
	}
	for seed := int64(0); seed < 120; seed++ {
		p, err := crosstest.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		run := func(noNative bool) traceState {
			mem, entry, scratch, err := p.Place()
			if err != nil {
				t.Fatal(err)
			}
			m := emu.NewMachine(mem)
			m.Traces = true
			m.TraceOpts = hotOpts
			m.TraceOpts.NoNativeTraces = noNative
			_, cerr := m.Call(entry, emu.CallArgs{Ints: []uint64{3, 5, scratch}}, 2_000_000)
			st := snapshot(m, cerr)
			if buf, rerr := mem.Read(scratch, crosstest.ScratchSize); rerr == nil {
				st.scratch = string(buf)
			}
			return st
		}
		diffStates(t, p.Desc, run(true), run(false), modeTraces, modeTraces)
	}
}

// TestTraceNativeDeoptBattery drives every native deopt shape — SMC store,
// memory fault, budget cutoff mid-trace — and a line-split penalty, which a
// trace logs rather than deoptimizes on, through the interpreter, the
// bytecode VM, and the native backend, demanding identical state including
// Cycles and error text.
func TestTraceNativeDeoptBattery(t *testing.T) {
	if !nativeTraceOK {
		t.Skip("no native trace backend on this platform")
	}
	t.Run("SMCStore", func(t *testing.T) {
		code := assembleAt(t, 0x5000, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
			b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(6, 8))
			loop := b.NewLabel()
			b.Bind(loop)
			b.I(x86.MOV, x86.MemBD(8, x86.RDX, 0), x86.R64(x86.RBX))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
			b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
			b.Jcc(x86.CondNE, loop)
			b.Ret()
		})
		code = append(code, make([]byte, 16)...)
		patch := 0x5000 + uint64(len(code)) - 8
		setup := func(m *emu.Machine, mem *emu.Memory) {
			m.GPR[x86.RDX] = patch
			m.GPR[x86.RBX] = 0
		}
		ref := runSnippet(t, code, modeInterp, 0, setup)
		vm := runSnippetVM(t, code, 0, setup)
		nat := runSnippet(t, code, modeTraces, 0, setup)
		diffStates(t, "smc store", ref, vm, modeInterp, modeTraces)
		diffStates(t, "smc store", ref, nat, modeInterp, modeTraces)
	})
	t.Run("MemFault", func(t *testing.T) {
		code := assembleAt(t, 0x5000, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
			b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(1000, 8))
			loop := b.NewLabel()
			b.Bind(loop)
			b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RDX, 0))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RBX))
			b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(8, 8))
			b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
			b.Jcc(x86.CondNE, loop)
			b.Ret()
		})
		setup := func(m *emu.Machine, mem *emu.Memory) {
			r := mem.Alloc(64*8, 64, "data")
			m.GPR[x86.RDX] = r.Start
		}
		ref := runSnippet(t, code, modeInterp, 0, setup)
		if ref.errMsg == "" {
			t.Fatal("expected a fault from the reference run")
		}
		vm := runSnippetVM(t, code, 0, setup)
		nat := runSnippet(t, code, modeTraces, 0, setup)
		diffStates(t, "mem fault", ref, vm, modeInterp, modeTraces)
		diffStates(t, "mem fault", ref, nat, modeInterp, modeTraces)
	})
	t.Run("LineSplitPenalty", func(t *testing.T) {
		code := assembleAt(t, 0x5000, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
			b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(100, 8))
			loop := b.NewLabel()
			b.Bind(loop)
			b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RDX, 0))
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RBX))
			b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
			b.Jcc(x86.CondNE, loop)
			b.Ret()
		})
		setup := func(m *emu.Machine, mem *emu.Memory) {
			r := mem.Alloc(128, 64, "data")
			if err := mem.WriteU(r.Start+60, 8, 0x42); err != nil {
				t.Fatal(err)
			}
			m.GPR[x86.RDX] = r.Start + 60
		}
		ref := runSnippet(t, code, modeInterp, 0, setup)
		vm := runSnippetVM(t, code, 0, setup)
		nat := runSnippet(t, code, modeTraces, 0, setup)
		diffStates(t, "penalty", ref, vm, modeInterp, modeTraces)
		diffStates(t, "penalty", ref, nat, modeInterp, modeTraces)
	})
	t.Run("BudgetCutoff", func(t *testing.T) {
		code := assembleAt(t, 0x5000, traceLoop(50))
		full := runSnippet(t, code, modeInterp, 0, nil)
		for budget := uint64(1); budget <= full.instCount+1; budget++ {
			ref := runSnippet(t, code, modeInterp, budget, nil)
			vm := runSnippetVM(t, code, budget, nil)
			nat := runSnippet(t, code, modeTraces, budget, nil)
			diffStates(t, "budget", ref, vm, modeInterp, modeTraces)
			diffStates(t, "budget", ref, nat, modeInterp, modeTraces)
		}
		if !strings.Contains(runSnippet(t, code, modeTraces, 7, nil).errMsg, "instruction budget") {
			t.Fatal("budget error not surfaced through the native trace engine")
		}
	})
}

// TestTraceNativeConcurrentInvalidate runs a native-traced machine and a
// VM-traced machine against a shared Memory while a goroutine hammers
// InvalidateRange. Under -race this proves the native tier (including its
// raw reads of the generation and watch words) adds no unsynchronized Go
// state, and both machines must still compute the reference result.
func TestTraceNativeConcurrentInvalidate(t *testing.T) {
	if !nativeTraceOK {
		t.Skip("no native trace backend on this platform")
	}
	code := assembleAt(t, 0x5000, traceLoop(200_000))
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	ref := runSnippet(t, code, modeInterp, 0, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mem.InvalidateRange(0x9000, 0x9001)
			}
		}
	}()
	var machines sync.WaitGroup
	for i := 0; i < 2; i++ {
		machines.Add(1)
		noNative := i == 1
		go func() {
			defer machines.Done()
			stack := mem.Alloc(1<<16, 4096, "stk")
			m := emu.NewMachine(mem)
			m.Traces = true
			m.TraceOpts = hotOpts
			m.TraceOpts.NoNativeTraces = noNative
			m.GPR[x86.RSP] = stack.End() - 64
			got, err := m.Call(0x5000, emu.CallArgs{}, 0)
			if err != nil {
				t.Errorf("call: %v", err)
			}
			if got != ref.gpr[x86.RAX] {
				t.Errorf("rax = %#x, want %#x", got, ref.gpr[x86.RAX])
			}
		}()
	}
	machines.Wait()
	close(stop)
	wg.Wait()
}

// linkedLoops builds the adjacent do-while pair the linking tier exists
// for: l1's not-taken backedge falls through onto l2's head, so once both
// inner traces are compiled, l1's guard exit hands off to l2 without block
// dispatch. The outer loop re-enters the pair enough times to heat both
// heads; its own recording aborts on the block cap (inner1+inner2 blocks >
// MaxBlocks), so no mega-trace swallows the pair.
func linkedLoops(outer, inner1, inner2 int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RBX), x86.Imm(outer, 8))
		top := b.NewLabel()
		b.Bind(top)
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(inner1, 8))
		b.I(x86.MOV, x86.R64(x86.RDX), x86.Imm(inner2, 8))
		l1 := b.NewLabel()
		b.Bind(l1)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.I(x86.XOR, x86.R64(x86.RAX), x86.Imm(0x3F, 8))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, l1) // fallthrough == l2 head
		l2 := b.NewLabel()
		b.Bind(l2)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDX))
		b.I(x86.SHR, x86.R64(x86.RAX), x86.Imm(1, 1))
		b.I(x86.SUB, x86.R64(x86.RDX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, l2)
		b.I(x86.SUB, x86.R64(x86.RBX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, top)
		b.Ret()
	}
}

// TestTraceLinkAdjacentLoops pins the linking behavior: the adjacent-loop
// kernel must count trace-to-trace links, stay bit-identical to the
// interpreter, and agree between the native backend and the bytecode VM.
func TestTraceLinkAdjacentLoops(t *testing.T) {
	// 40+40 inner blocks per outer iteration overflow MaxBlocks (64), so
	// the outer head's recording aborts and the inner traces link.
	code := assembleAt(t, 0x5000, linkedLoops(50, 40, 40))
	before := emu.ReadTraceStats()
	ref := runSnippet(t, code, modeInterp, 0, nil)
	nat := runSnippet(t, code, modeTraces, 0, nil)
	vm := runSnippetVM(t, code, 0, nil)
	diffStates(t, "linked loops", ref, nat, modeInterp, modeTraces)
	diffStates(t, "linked loops", ref, vm, modeInterp, modeTraces)
	after := emu.ReadTraceStats()
	if after.Links == before.Links {
		t.Fatalf("adjacent loops produced no trace links: %+v", after)
	}
}

// TestTraceLinkBudgetCutoff sweeps the instruction budget across the linked
// kernel, so cutoffs land inside the first trace, inside a linked trace,
// and on link boundaries — all must match the interpreter exactly.
func TestTraceLinkBudgetCutoff(t *testing.T) {
	code := assembleAt(t, 0x5000, linkedLoops(4, 40, 40))
	full := runSnippet(t, code, modeInterp, 0, nil)
	for budget := uint64(1); budget <= full.instCount+1; budget++ {
		ref := runSnippet(t, code, modeInterp, budget, nil)
		nat := runSnippet(t, code, modeTraces, budget, nil)
		diffStates(t, "linked budget", ref, nat, modeInterp, modeTraces)
	}
}

// TestTraceLinkInvalidation bumps the chain epoch (via a machine-level
// InvalidateRange of unrelated bytes) between runs of the linked kernel:
// cached links must be rejected, counted, and re-resolved, and the result
// must stay correct.
func TestTraceLinkInvalidation(t *testing.T) {
	code := assembleAt(t, 0x5000, linkedLoops(50, 40, 40))
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	ref := runSnippet(t, code, modeInterp, 0, nil)
	m := emu.NewMachine(mem)
	configure(m, modeTraces)
	if _, err := m.Call(0x5000, emu.CallArgs{}, 0); err != nil {
		t.Fatal(err)
	}
	before := emu.ReadTraceStats()
	// Unrelated range: traces survive, the chain epoch moves.
	m.InvalidateRange(0x900000, 0x900010)
	m.Reset()
	if _, err := m.Call(0x5000, emu.CallArgs{}, 0); err != nil {
		t.Fatal(err)
	}
	if m.GPR[x86.RAX] != ref.gpr[x86.RAX] {
		t.Fatalf("rax = %#x, want %#x", m.GPR[x86.RAX], ref.gpr[x86.RAX])
	}
	after := emu.ReadTraceStats()
	if after.LinkInvalidations == before.LinkInvalidations {
		t.Fatalf("epoch bump did not invalidate any cached link: %+v", after)
	}
	if after.Links == before.Links {
		t.Fatalf("links were not re-resolved after invalidation: %+v", after)
	}
}

// phasedLoop alternates its loop body path in phases of 32 iterations (bit
// 5 of the counter), the shape monomorphic tracing thrashes on.
func phasedLoop(iters int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(iters, 8))
		loop := b.NewLabel()
		even := b.NewLabel()
		tail := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.R64(x86.RDX), x86.R64(x86.RCX))
		b.I(x86.AND, x86.R64(x86.RDX), x86.Imm(32, 8))
		b.Jcc(x86.CondE, even)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(3, 8))
		b.Jmp(tail)
		b.Bind(even)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(5, 8))
		b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(x86.RDX))
		b.Bind(tail)
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	}
}

// TestTracePolymorphicSelection runs the phased loop: the head must hold
// two traces (one per path, the second keyed by the thrash context), both
// must execute, and the state must stay bit-identical to the interpreter.
func TestTracePolymorphicSelection(t *testing.T) {
	code := assembleAt(t, 0x5000, phasedLoop(4096))
	before := emu.ReadTraceStats()
	ref := runSnippet(t, code, modeInterp, 0, nil)
	got := runSnippet(t, code, modeTraces, 0, nil)
	diffStates(t, "phased loop", ref, got, modeInterp, modeTraces)
	after := emu.ReadTraceStats()
	if n := after.Compiled - before.Compiled; n < 2 {
		t.Fatalf("phased loop compiled %d traces, want 2 (one per path): %+v", n, after)
	}
	// Both paths stay hot for whole phases, so iterations must dwarf the
	// side-exit count — the polymorphic head no longer thrashes.
	if it, se := after.Iters-before.Iters, after.SideExits-before.SideExits; it < 8*se {
		t.Fatalf("polymorphic head still thrashing: %d iters vs %d side exits", it, se)
	}
}

// TestTracePolymorphicBounded pins the slot bound: a head alternating over
// three paths gets exactly maxTracesPerHead traces, never more.
func TestTracePolymorphicBounded(t *testing.T) {
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		// Three-way phased body on bits 5-6 of the counter.
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(4096, 8))
		loop := b.NewLabel()
		p1 := b.NewLabel()
		p2 := b.NewLabel()
		tail := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.R64(x86.RDX), x86.R64(x86.RCX))
		b.I(x86.AND, x86.R64(x86.RDX), x86.Imm(96, 8))
		b.Jcc(x86.CondE, p1)
		b.I(x86.CMP, x86.R64(x86.RDX), x86.Imm(32, 8))
		b.Jcc(x86.CondE, p2)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(7, 8))
		b.Jmp(tail)
		b.Bind(p1)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(3, 8))
		b.Jmp(tail)
		b.Bind(p2)
		b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.Bind(tail)
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	before := emu.ReadTraceStats()
	ref := runSnippet(t, code, modeInterp, 0, nil)
	got := runSnippet(t, code, modeTraces, 0, nil)
	diffStates(t, "three-way phased loop", ref, got, modeInterp, modeTraces)
	after := emu.ReadTraceStats()
	if n := after.Compiled - before.Compiled; n > 2 {
		t.Fatalf("three-way head compiled %d traces, want at most %d", n, 2)
	}
}
