package jit

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// Tests for the scalar SSE2 subset of the trace tier. The house invariant is
// unchanged: interpreter, block engine, bytecode trace VM and native traces
// agree on GPR, both XMM lanes, flags, memory, Cycles, InstCount, RIP and
// error text. Test names carry the TestTraceNative prefix so the battery
// runs under -race in `make race-trace-native`; on hosts without the native
// backend the "native" engine compiles to the VM and the battery still runs.

// fpEngines are the four ways to execute the same guest code, the
// interpreter first (it is the reference).
var fpEngines = []struct {
	name string
	set  func(*emu.Machine)
}{
	{"interp", func(m *emu.Machine) { m.Interp = true }},
	{"blocks", func(m *emu.Machine) { m.Traces = false }},
	{"tracevm", func(m *emu.Machine) { m.Traces = true; m.TraceOpts = vmOpts }},
	{"native", func(m *emu.Machine) { m.Traces = true; m.TraceOpts = hotOpts }},
}

// fpRun places code at 0x5000 in a fresh memory, lets setup allocate and
// fill a data region (the same addresses on every engine: allocation is
// deterministic), calls the code `calls` times on one machine and returns the
// final state with the data region's bytes as scratch.
func fpRun(t *testing.T, code []byte, set func(*emu.Machine), budget uint64, calls int,
	setup func(m *emu.Machine, mem *emu.Memory) *emu.Region) traceState {
	t.Helper()
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	set(m)
	var data *emu.Region
	var err error
	for i := 0; i < calls; i++ {
		m.Reset()
		data = setup(m, mem)
		if _, err = m.Call(0x5000, emu.CallArgs{}, budget); err != nil {
			break
		}
	}
	st := snapshot(m, err)
	if data != nil {
		st.scratch = string(data.Data)
	}
	return st
}

// fpDiffAll runs the snippet on every engine and compares with the
// interpreter.
func fpDiffAll(t *testing.T, desc string, code []byte, budget uint64, calls int,
	setup func(m *emu.Machine, mem *emu.Memory) *emu.Region) traceState {
	t.Helper()
	ref := fpRun(t, code, fpEngines[0].set, budget, calls, setup)
	for _, e := range fpEngines[1:] {
		got := fpRun(t, code, e.set, budget, calls, setup)
		diffStates(t, desc+" on "+e.name, ref, got, modeInterp, modeTraces)
	}
	return ref
}

// fpSpecials are the operand values of the per-op table: signed zeros,
// denormals, infinities, quiet and signalling NaNs with distinct payloads,
// and ordinary values whose sums, products and quotients round.
var fpSpecials = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // smallest denormal
	0x800FFFFFFFFFFFFF, // largest negative denormal
	0x0010000000000000, // smallest normal
	0x7FEFFFFFFFFFFFFF, // largest finite
	0x7FF0000000000000, // +Inf
	0xFFF0000000000000, // -Inf
	0x7FF8000000000001, // quiet NaN, payload 1
	0xFFF8000000000ABC, // negative quiet NaN, payload 0xABC
	0x7FF0000000000002, // signalling NaN, payload 2
	0xFFF4000000000DEF, // negative signalling NaN
	math.Float64bits(1.0),
	math.Float64bits(-1.0),
	math.Float64bits(0.1),
	math.Float64bits(3.0),
	math.Float64bits(1e308),
	math.Float64bits(-7.25e-300),
}

// TestTraceNativeFPOps drives every supported arithmetic op, in its register
// and its memory form, over all ordered pairs of fpSpecials inside a traced
// loop, and demands the four engines agree bit for bit on every result —
// which makes the native host's NaN selection, denormal handling and
// rounding equal to the VM's and the interpreter's. The loop also carries
// the lane-shuffling moves so both lanes of seven registers are compared.
func TestTraceNativeFPOps(t *testing.T) {
	n := len(fpSpecials) * len(fpSpecials)
	ops := []x86.Op{x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD}
	for _, op := range ops {
		for _, memForm := range []bool{false, true} {
			desc := fmt.Sprintf("%v mem=%v", op, memForm)
			code := assembleAt(t, 0x5000, func(b *asm.Builder) {
				// rdx walks (a, b, result) triples of 24 bytes.
				b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(int64(n), 8))
				loop := b.NewLabel()
				b.Bind(loop)
				b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBD(8, x86.RDX, 0)) // zeroes xmm0.hi
				if memForm {
					b.I(op, x86.X(x86.XMM0), x86.MemBD(8, x86.RDX, 8))
				} else {
					b.I(x86.MOVSD_X, x86.X(x86.XMM1), x86.MemBD(8, x86.RDX, 8))
					b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
				}
				b.I(x86.MOVSD_X, x86.MemBD(8, x86.RDX, 16), x86.X(x86.XMM0))
				b.I(x86.MOVSD_X, x86.X(x86.XMM2), x86.X(x86.XMM0)) // keeps xmm2.hi
				b.I(x86.MOVAPD, x86.X(x86.XMM3), x86.X(x86.XMM2))  // both lanes
				b.I(x86.MOVQ, x86.X(x86.XMM4), x86.X(x86.XMM3))    // zeroes xmm4.hi
				b.I(x86.PXOR, x86.X(x86.XMM5), x86.X(x86.XMM3))    // xors both lanes
				b.I(x86.XORPD, x86.X(x86.XMM6), x86.X(x86.XMM6))   // zero idiom
				b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(24, 8))
				b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
				b.Jcc(x86.CondNE, loop)
				b.Ret()
			})
			setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
				r := mem.Alloc(24*n, 64, "pairs")
				for i, a := range fpSpecials {
					for j, bv := range fpSpecials {
						off := 24 * (i*len(fpSpecials) + j)
						binary.LittleEndian.PutUint64(r.Data[off:], a)
						binary.LittleEndian.PutUint64(r.Data[off+8:], bv)
					}
				}
				m.GPR[x86.RDX] = r.Start
				for i := range m.XMM {
					m.XMM[i] = emu.XMMReg{Lo: 0x1111111111111111 * uint64(i+1), Hi: 0xA5A5A5A5A5A5A5A5 ^ uint64(i)}
				}
				return r
			}
			before := emu.ReadTraceStats()
			ref := fpDiffAll(t, desc, code, 0, 6, setup) // 6 calls: past the O3 recompile, whole table in-trace
			after := emu.ReadTraceStats()
			if after.Compiled == before.Compiled {
				t.Fatalf("%s: the loop was never traced (aborts %v)", desc, after.AbortedBy)
			}
			// The table is only worth its name if the reference itself is
			// what the host computes: spot-check against Go's arithmetic,
			// which on amd64 is the same SSE2 instruction.
			for k := 0; k < n; k++ {
				a := math.Float64frombits(binary.LittleEndian.Uint64([]byte(ref.scratch[24*k:])))
				bv := math.Float64frombits(binary.LittleEndian.Uint64([]byte(ref.scratch[24*k+8:])))
				got := binary.LittleEndian.Uint64([]byte(ref.scratch[24*k+16:]))
				var want float64
				switch op {
				case x86.ADDSD:
					want = a + bv
				case x86.SUBSD:
					want = a - bv
				case x86.MULSD:
					want = a * bv
				case x86.DIVSD:
					want = a / bv
				}
				if math.IsNaN(want) {
					if !math.IsNaN(math.Float64frombits(got)) {
						t.Fatalf("%s: pair %d: got %#x, want a NaN", desc, k, got)
					}
					continue
				}
				if got != math.Float64bits(want) {
					t.Fatalf("%s: pair %d: got %#x, want %#x", desc, k, got, math.Float64bits(want))
				}
			}
		}
	}
}

// fpAccumulate is the stencil-shaped loop of the deopt tests: an FP load, a
// multiply by a memory operand, an accumulate and an FP store per element.
// An integer add leads the loop body, so a deopt on any of the memory
// accesses is a mid-trace deopt.
func fpAccumulate(n int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(n, 8))
		b.I(x86.PXOR, x86.X(x86.XMM1), x86.X(x86.XMM1))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(3, 8))
		b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBD(8, x86.RDX, 0))
		b.I(x86.MULSD, x86.X(x86.XMM0), x86.MemBD(8, x86.RSI, 0))
		b.I(x86.ADDSD, x86.X(x86.XMM1), x86.X(x86.XMM0))
		b.I(x86.MOVSD_X, x86.MemBD(8, x86.RDI, 0), x86.X(x86.XMM1))
		b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(8, 8))
		b.I(x86.ADD, x86.R64(x86.RDI), x86.Imm(8, 8))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	}
}

// fpData fills a region with n doubles and one coefficient behind them.
func fpData(r *emu.Region, n int) {
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(r.Data[8*i:], math.Float64bits(float64(i%17)/8+0.125))
	}
}

// TestTraceNativeFPDeoptBattery lands every deopt shape on an FP
// instruction in the middle of a trace: a faulting FP load, an FP store into
// a watched (code-bearing) region, and every possible budget cutoff of an
// FP loop; and a line-splitting FP load, which the trace logs and charges.
func TestTraceNativeFPDeoptBattery(t *testing.T) {
	t.Run("MemFault", func(t *testing.T) {
		code := assembleAt(t, 0x5000, fpAccumulate(1000))
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			in := mem.Alloc(64*8, 64, "in") // 64 doubles; the loop wants 1000
			fpData(in, 64)
			coef := mem.Alloc(4096, 4096, "coef") // page gap: the walk off "in" faults
			binary.LittleEndian.PutUint64(coef.Data, math.Float64bits(0.25))
			out := mem.Alloc(1000*8, 64, "out")
			m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = in.Start, coef.Start, out.Start
			return out
		}
		if ref := fpDiffAll(t, "fp mem fault", code, 0, 1, setup); ref.errMsg == "" {
			t.Fatal("expected a fault from the reference run")
		}
	})
	t.Run("LineSplitPenalty", func(t *testing.T) {
		code := assembleAt(t, 0x5000, fpAccumulate(200))
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			in := mem.Alloc(201*8, 64, "in")
			fpData(in, 201)
			coef := mem.Alloc(128, 64, "coef")
			binary.LittleEndian.PutUint64(coef.Data[60:], math.Float64bits(0.25)) // straddles the line
			out := mem.Alloc(200*8, 64, "out")
			m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = in.Start, coef.Start+60, out.Start
			return out
		}
		fpDiffAll(t, "fp penalty", code, 0, 1, setup)
	})
	t.Run("SMCStore", func(t *testing.T) {
		code := assembleAt(t, 0x5000, fpAccumulate(6))
		code = append(code, make([]byte, 64)...) // writable padding after RET
		patch := 0x5000 + uint64(len(code)) - 56
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			in := mem.Alloc(8*8, 64, "in")
			fpData(in, 8)
			coef := mem.Alloc(64, 64, "coef")
			binary.LittleEndian.PutUint64(coef.Data, math.Float64bits(0.25))
			m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = in.Start, coef.Start, patch
			return in
		}
		ref := fpDiffAll(t, "fp smc store", code, 0, 1, setup)
		if ref.errMsg != "" || ref.gpr[x86.RCX] != 0 {
			t.Fatalf("loop did not complete: rcx=%d err=%q", ref.gpr[x86.RCX], ref.errMsg)
		}
	})
	t.Run("BudgetCutoff", func(t *testing.T) {
		code := assembleAt(t, 0x5000, fpAccumulate(40))
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			in := mem.Alloc(40*8, 64, "in")
			fpData(in, 40)
			coef := mem.Alloc(64, 64, "coef")
			binary.LittleEndian.PutUint64(coef.Data, math.Float64bits(0.25))
			out := mem.Alloc(40*8, 64, "out")
			m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = in.Start, coef.Start, out.Start
			return out
		}
		full := fpRun(t, code, fpEngines[0].set, 0, 1, setup)
		for budget := uint64(1); budget <= full.instCount+1; budget++ {
			fpDiffAll(t, fmt.Sprintf("fp budget %d", budget), code, budget, 1, setup)
		}
	})
}

// TestTraceNativeFPRetire is the no-progress retirement rule: a scalar FP
// loop whose trace, once installed, deoptimizes on its first instruction on
// every run retires nothing. Penalized accesses no longer do that — they are
// logged and charged — so the stall here is a fault: after a call that
// records and runs the trace, every later call's second iteration, the
// trace's first, loads from an unmapped address. After traceRetireStalls
// such runs the trace is retired, the head blacklisted with reason
// no-progress, and from then on the loop runs on the block engine alone — no
// further trace entries, same state as a machine that never traced.
func TestTraceNativeFPRetire(t *testing.T) {
	const iters = 500
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(iters, 8))
		b.I(x86.PXOR, x86.X(x86.XMM1), x86.X(x86.XMM1))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBD(8, x86.RDX, 0))
		b.I(x86.ADDSD, x86.X(x86.XMM1), x86.X(x86.XMM0))
		b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(8, 8))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	// call runs the loop from the start of the data (every load valid) or
	// from its last double (the second load faults), on a fresh call.
	call := func(m *emu.Machine, r *emu.Region, fromEnd bool) error {
		m.Reset()
		m.GPR[x86.RDX] = r.Start
		if fromEnd {
			m.GPR[x86.RDX] = r.End() - 8
		}
		_, err := m.Call(0x5000, emu.CallArgs{}, 0)
		return err
	}
	machine := func(set func(*emu.Machine)) (*emu.Machine, *emu.Region) {
		mem := emu.NewMemory(0x1000000)
		if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
			t.Fatal(err)
		}
		r := mem.Alloc(8*iters, 64, "data")
		fpData(r, iters)
		m := emu.NewMachine(mem)
		set(m)
		return m, r
	}
	m, r := machine(func(m *emu.Machine) { m.Traces = true; m.TraceOpts = hotOpts })
	blocks, br := machine(fpEngines[1].set)
	if err := call(m, r, false); err != nil {
		t.Fatal(err)
	}
	if err := call(blocks, br, false); err != nil {
		t.Fatal(err)
	}
	before := emu.ReadTraceStats()
	for i := 0; i < 32; i++ {
		if err := call(m, r, true); err == nil {
			t.Fatal("the load past the data did not fault")
		}
	}
	mid := emu.ReadTraceStats()
	if n := mid.Compiled - before.Compiled; n != 0 {
		t.Fatalf("compiled %d traces while stalling, want 0", n)
	}
	if n := mid.AbortedBy[emu.AbortNoProgress] - before.AbortedBy[emu.AbortNoProgress]; n != 1 {
		t.Fatalf("no-progress retirements: %d, want exactly 1 (aborts %v)", n, mid.AbortedBy)
	}
	if n := mid.Runs - before.Runs; n != 32 {
		t.Fatalf("trace entered %d times before retirement, want 32", n)
	}
	if mid.Iters != before.Iters || mid.SideExits != before.SideExits {
		t.Fatalf("a retired-for-no-progress trace made progress: %+v", mid)
	}
	// Later calls on the same machine: the head stays blacklisted, nothing
	// is recorded, compiled or entered.
	for i := 0; i < 32; i++ {
		if err := call(blocks, br, true); err == nil {
			t.Fatal("the load past the data did not fault on the block engine")
		}
	}
	err := call(m, r, false)
	after := emu.ReadTraceStats()
	if after.Runs != mid.Runs || after.Compiled != mid.Compiled || after.Aborted != mid.Aborted {
		t.Fatalf("retired head was traced again: runs %d->%d compiled %d->%d aborted %d->%d",
			mid.Runs, after.Runs, mid.Compiled, after.Compiled, mid.Aborted, after.Aborted)
	}
	got := snapshot(m, err)
	want := snapshot(blocks, call(blocks, br, false))
	diffStates(t, "retired loop vs block engine", want, got, modeBlocks, modeTraces)
}

// TestTraceNativeFPKeepsProgressingTraces is the other half of the rule: a
// trace that side-exits on every run, but after retiring instructions, is
// a net win and must survive any number of runs.
func TestTraceNativeFPKeepsProgressingTraces(t *testing.T) {
	// The inner loop runs four times per outer iteration, the first inside
	// the outer loop's block: two full iterations and a guard exit per run,
	// hundreds of runs.
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RBX), x86.Imm(300, 8))
		b.I(x86.PXOR, x86.X(x86.XMM1), x86.X(x86.XMM1))
		outer := b.NewLabel()
		b.Bind(outer)
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(4, 8))
		inner := b.NewLabel()
		b.Bind(inner)
		b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBD(8, x86.RDX, 0))
		b.I(x86.ADDSD, x86.X(x86.XMM1), x86.X(x86.XMM0))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, inner)
		next := b.NewLabel()
		b.CallLabel(next) // a call in the outer loop keeps it untraceable
		b.Bind(next)
		b.I(x86.ADD, x86.R64(x86.RSP), x86.Imm(8, 8))
		b.I(x86.SUB, x86.R64(x86.RBX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, outer)
		b.Ret()
	})
	setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
		r := mem.Alloc(64, 64, "data")
		binary.LittleEndian.PutUint64(r.Data, math.Float64bits(0.5))
		m.GPR[x86.RDX] = r.Start
		return r
	}
	before := emu.ReadTraceStats()
	fpDiffAll(t, "short inner loop", code, 0, 1, setup)
	after := emu.ReadTraceStats()
	if n := after.AbortedBy[emu.AbortNoProgress] - before.AbortedBy[emu.AbortNoProgress]; n != 0 {
		t.Fatalf("%d progress-making traces were retired", n)
	}
	if runs := after.Runs - before.Runs; runs < 2*250 {
		t.Fatalf("inner trace ran %d times over two traced engines, want it entered on nearly every outer iteration", runs)
	}
}

// TestTraceNativeFPRejectedAtScan pins what stays out of the tier: 16-byte
// memory operands of the bitwise ops, compares, conversions, square roots
// and single precision abort the recording as unsupported-op, blacklist the
// head, and leave the loop on the block engine with the interpreter's exact
// state. (The packed forms the tier admits are in tracepacked_test.go.)
func TestTraceNativeFPRejectedAtScan(t *testing.T) {
	bodies := map[string]func(b *asm.Builder){
		"pxor m128": func(b *asm.Builder) { b.I(x86.PXOR, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0)) },
		"ucomisd":   func(b *asm.Builder) { b.I(x86.UCOMISD, x86.X(x86.XMM0), x86.X(x86.XMM1)) },
		"sqrtsd":    func(b *asm.Builder) { b.I(x86.SQRTSD, x86.X(x86.XMM0), x86.X(x86.XMM1)) },
		"cvtsi2sd":  func(b *asm.Builder) { b.I(x86.CVTSI2SD, x86.X(x86.XMM0), x86.R64(x86.RCX)) },
		"addss":     func(b *asm.Builder) { b.I(x86.ADDSS, x86.X(x86.XMM0), x86.X(x86.XMM1)) },
		"movq m64":  func(b *asm.Builder) { b.I(x86.MOVQ, x86.X(x86.XMM0), x86.MemBD(8, x86.RDX, 0)) },
	}
	for name, body := range bodies {
		code := assembleAt(t, 0x5000, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(100, 8))
			loop := b.NewLabel()
			b.Bind(loop)
			b.I(x86.ADDSD, x86.X(x86.XMM1), x86.X(x86.XMM2))
			body(b)
			b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
			b.Jcc(x86.CondNE, loop)
			b.Ret()
		})
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			r := mem.Alloc(64, 64, "data")
			binary.LittleEndian.PutUint64(r.Data, math.Float64bits(2.5))
			binary.LittleEndian.PutUint64(r.Data[8:], math.Float64bits(-1.5))
			m.GPR[x86.RDX] = r.Start
			m.XMM[2] = emu.XMMReg{Lo: math.Float64bits(0.75), Hi: 7}
			return r
		}
		before := emu.ReadTraceStats()
		fpDiffAll(t, name, code, 0, 1, setup)
		after := emu.ReadTraceStats()
		if after.Compiled != before.Compiled {
			t.Errorf("%s: compiled a trace, want the recording refused", name)
		}
		// Two traced engines, one refusal each.
		if n := after.AbortedBy[emu.AbortUnsupportedOp] - before.AbortedBy[emu.AbortUnsupportedOp]; n != 2 {
			t.Errorf("%s: %d unsupported-op aborts, want 2 (by reason %v)", name, n, after.AbortedBy)
		}
	}
}

// TestTraceNativeFPConstantOperand is how JIT-compiled code materializes a
// double constant — mov r64, imm64; movq xmm, r64 — inside a traced loop,
// with the constant a NaN on the destination side of an add whose other
// operand is a NaN too: the trace sees fadd C, x with C a literal, and must
// keep C first, because that is the payload the hardware returns. The loop
// also moves the result back to a GPR (movq r64, xmm).
func TestTraceNativeFPConstantOperand(t *testing.T) {
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(50, 8))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.R64(x86.R11), x86.Imm(0x7FF8000000000123, 8))
		b.I(x86.MOVQGP, x86.X(x86.XMM1), x86.R64(x86.R11)) // zeroes xmm1.hi
		b.I(x86.ADDSD, x86.X(x86.XMM1), x86.MemBD(8, x86.RDX, 0))
		b.I(x86.MOVQGP, x86.R64(x86.RAX), x86.X(x86.XMM1))
		b.I(x86.MOV, x86.R64(x86.R10), x86.Imm(0x3FD0000000000000, 8)) // 0.25
		b.I(x86.MOVQGP, x86.X(x86.XMM2), x86.R64(x86.R10))
		b.I(x86.MULSD, x86.X(x86.XMM2), x86.MemBD(8, x86.RDX, 8))
		b.I(x86.ADDSD, x86.X(x86.XMM3), x86.X(x86.XMM2))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
		r := mem.Alloc(64, 64, "data")
		binary.LittleEndian.PutUint64(r.Data, 0xFFF8000000000456) // another NaN
		binary.LittleEndian.PutUint64(r.Data[8:], math.Float64bits(3.5))
		m.GPR[x86.RDX] = r.Start
		m.XMM[1].Hi, m.XMM[2].Hi, m.XMM[3].Hi = 11, 22, 33
		return r
	}
	before := emu.ReadTraceStats().Compiled
	ref := fpDiffAll(t, "constant operand", code, 0, 1, setup)
	if emu.ReadTraceStats().Compiled == before {
		t.Fatal("the loop was never traced")
	}
	if ref.gpr[x86.RAX] != 0x7FF8000000000123 {
		t.Fatalf("rax = %#x, want the destination operand's NaN", ref.gpr[x86.RAX])
	}
}

// TestTraceOptimizerLeavesFPAlone pins the trace optimizer configuration at
// both levels: no identity folding (x * 1.0 quiets a signalling NaN, and
// x + -0.0 is only x because of a sign rule nobody should have to trust), no
// reassociation ((a*c)+(b*c) rounds twice where (a+b)*c rounds once), and no
// commuting (of two NaN operands the hardware returns the first).
func TestTraceOptimizerLeavesFPAlone(t *testing.T) {
	for _, o3 := range []bool{false, true} {
		f := ir.NewFunc("fp", ir.Double, ir.Double, ir.Double)
		b := ir.NewBuilder(f)
		x, y := f.Params[0], f.Params[1]
		negZero := ir.Flt(math.Copysign(0, -1))
		c := ir.Flt(0.25)
		add := b.FAdd(x, negZero)
		mul := b.FMul(add, ir.Flt(1.0))
		dist := b.FAdd(b.FMul(mul, c), b.FMul(y, c))
		nan := ir.Flt(math.Float64frombits(0x7FF8000000000123))
		left := b.FAdd(nan, dist) // constant on the left must stay there
		b.Ret(left)
		opt.Optimize(f, traceOptConfig(o3))
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
		count := map[ir.Op]int{}
		for _, blk := range f.Blocks {
			for _, in := range blk.Insts {
				count[in.Op]++
			}
		}
		if count[ir.OpFAdd] != 3 || count[ir.OpFMul] != 3 {
			t.Errorf("o3=%v: %d fadd and %d fmul left, want 3 and 3:\n%s",
				o3, count[ir.OpFAdd], count[ir.OpFMul], ir.FormatFunc(f))
		}
		if left.Args[0] != ir.Value(nan) {
			t.Errorf("o3=%v: fadd NaN, x was commuted:\n%s", o3, ir.FormatFunc(f))
		}
		if add.Args[0] != ir.Value(x) || add.Args[1] != ir.Value(negZero) {
			t.Errorf("o3=%v: fadd x, -0.0 was rewritten:\n%s", o3, ir.FormatFunc(f))
		}
	}
}
