package jit

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// The flag battery: every flag writer the trace tier accepts, at every
// width, leaves a traced loop with boundary operands. A trace exit rebuilds
// the flags from the last writer's kernel inputs through emu.Int, and the
// loop-carried state is materialized as IR, so both must reproduce the
// interpreter's flags, registers, Cycles and InstCount.

// exitFlagWarm is the number of iterations the battery's loops run before
// the one that leaves: enough for the loop to be recorded, compiled and
// entered as a trace.
const exitFlagWarm = 6

// exitFlagCase is one writer with its target operands: a is loaded into
// rax, b into rdx (unused by a one-input writer or one with an immediate),
// and f0 is the machine's flags before the loop. The writer is the loop's
// only flag writer, so the flags it passes through keep f0's values.
type exitFlagCase struct {
	w    x86.Inst
	a, b uint64
	f0   emu.Flags
}

// exitFlagWriter builds writer op at width sz over rax (and rdx, or the
// immediate imm for IMUL3 and the shift count); false for a form x86 does
// not have.
func exitFlagWriter(op x86.Op, sz uint8, imm int64) (x86.Inst, bool) {
	in := x86.Inst{Op: op, Dst: x86.RegOp(x86.RAX, sz), Src: x86.RegOp(x86.RDX, sz)}
	switch op {
	case x86.INC, x86.DEC, x86.NEG:
		in.Src = x86.Operand{}
	case x86.IMUL:
		return in, sz > 1
	case x86.IMUL3:
		in.Src, in.Src2 = in.Dst, x86.Imm(imm, sz)
		return in, sz > 1
	case x86.SHL, x86.SHR, x86.SAR:
		in.Src = x86.Imm(imm, 1)
	}
	return in, true
}

// exitFlagsLoop is the battery's loop: each iteration loads a and b from
// the 16-byte table entry at rsi, steps rsi without touching the flags, runs
// the writer and loops while c holds.
func exitFlagsLoop(w x86.Inst, c x86.Cond) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.R64(x86.RAX), x86.MemBD(8, x86.RSI, 0))
		b.I(x86.MOV, x86.R64(x86.RDX), x86.MemBD(8, x86.RSI, 8))
		b.I(x86.LEA, x86.R64(x86.RSI), x86.MemBD(8, x86.RSI, 16))
		b.Emit(w)
		b.Jcc(c, loop)
		b.Ret()
	}
}

// flagsAfter is the flags the writer leaves on operands a and b (its
// immediate, if it has one, in place of b).
func (c exitFlagCase) flagsAfter(a, b uint64) emu.Flags {
	if _, bo, _, _ := emu.IntOperands(&c.w); bo.Kind == x86.KImm {
		b = uint64(bo.Imm)
	}
	f := c.f0
	emu.Int(&c.w, a, b, &f)
	return f
}

// holding returns a condition that holds in f and fails in g, false when
// the two agree on every flag a condition reads.
func holding(f, g emu.Flags) (x86.Cond, bool) {
	for _, fc := range []struct {
		c    x86.Cond
		f, g bool
	}{{x86.CondB, f.CF, g.CF}, {x86.CondE, f.ZF, g.ZF}, {x86.CondS, f.SF, g.SF}, {x86.CondO, f.OF, g.OF}, {x86.CondP, f.PF, g.PF}} {
		if fc.f != fc.g {
			if !fc.f {
				return fc.c | 1, true
			}
			return fc.c, true
		}
	}
	return 0, false
}

// exitFlagWarmOps are the candidate operands of the iterations before a
// guard exit: the first whose flags a condition tells from the target's.
var exitFlagWarmOps = [][2]uint64{{0, 0}, {1, 1}, {1, 0}, {1<<64 - 1, 1}, {1 << 63, 1 << 63}, {5, 3}, {0x7F, 0x7F}, {1 << 62, 3}}

// runExitFlags runs case c in both of the battery's shapes on the
// interpreter, the trace tier (native where the host has it) and the trace
// VM, and compares their states.
//   - Guard: warm iterations whose flags satisfy the loop condition, then
//     the target, whose flags fail it: the trace leaves through the guard
//     right after the writer.
//   - Deopt: the target operands on every iteration and a condition they
//     satisfy; the table ends at an unmapped address, so the trace
//     deoptimizes at the first load of the next iteration, before its
//     first flag write, and carries the explicit flags materialized from
//     the writer.
//
// It reports whether the guard shape ran.
func runExitFlags(t *testing.T, c exitFlagCase) bool {
	t.Helper()
	ft := c.flagsAfter(c.a, c.b)
	guard := false
	for _, ops := range exitFlagWarmOps {
		if cond, ok := holding(c.flagsAfter(ops[0], ops[1]), ft); ok {
			entries := make([][2]uint64, exitFlagWarm, exitFlagWarm+1)
			for i := range entries {
				entries[i] = ops
			}
			runExitFlagShape(t, c, "guard", cond, append(entries, [2]uint64{c.a, c.b}), true)
			guard = true
			break
		}
	}
	cond := x86.CondAE
	if ft.CF {
		cond = x86.CondB
	}
	entries := make([][2]uint64, exitFlagWarm+1)
	for i := range entries {
		entries[i] = [2]uint64{c.a, c.b}
	}
	runExitFlagShape(t, c, "deopt", cond, entries, false)
	return guard
}

func runExitFlagShape(t *testing.T, c exitFlagCase, shape string, cond x86.Cond, entries [][2]uint64, guard bool) {
	t.Helper()
	code := assembleAt(t, 0x5000, exitFlagsLoop(c.w, cond))
	setup := func(m *emu.Machine, mem *emu.Memory) {
		r := mem.Alloc(16*len(entries), 64, "table")
		for i, e := range entries {
			if err := mem.WriteU(r.Start+uint64(16*i), 8, e[0]); err != nil {
				t.Fatal(err)
			}
			if err := mem.WriteU(r.Start+uint64(16*i+8), 8, e[1]); err != nil {
				t.Fatal(err)
			}
		}
		m.GPR[x86.RSI] = r.Start
		m.Flags = c.f0
	}
	desc := func(engine string) string {
		return shape + " exit after " + c.w.String() + " " + engine
	}
	ref := runSnippet(t, code, modeInterp, 0, setup)
	if (ref.errMsg == "") != guard {
		t.Fatalf("%s: reference run ended with %q", desc("interp"), ref.errMsg)
	}
	if ref.flags != c.flagsAfter(c.a, c.b) {
		t.Fatalf("%s (%#x, %#x): interpreter flags %+v, kernel says %+v", desc("interp"), c.a, c.b, ref.flags, c.flagsAfter(c.a, c.b))
	}
	before := emu.ReadTraceStats()
	diffStates(t, desc("traces"), ref, runSnippet(t, code, modeTraces, 0, setup), modeInterp, modeTraces)
	diffStates(t, desc("trace VM"), ref, runSnippetVM(t, code, 0, setup), modeInterp, modeTraces)
	after := emu.ReadTraceStats()
	if after.Iters == before.Iters {
		t.Fatalf("%s: the loop ran no trace iteration (aborts by reason %v)", desc("traces"), after.AbortedBy)
	}
	if guard && after.SideExits == before.SideExits {
		t.Fatalf("%s: the trace did not leave through a side exit", desc("traces"))
	}
}

// exitFlagOperands are the battery's target operands at width sz: zero and
// one, the signed extremes, all ones, a nibble carry, and the products of
// 2^(4sz) with itself, with 2^(4sz-1) and with -2^(4sz-1) (the first two
// overflow, the last is the most negative value and fits). Bits above the
// width are set, which the trace must mask.
func exitFlagOperands(sz uint8) [][2]uint64 {
	w := uint(sz) * 8
	m := ^uint64(0) >> (64 - w)
	h, n, q := m>>1, m>>1+1, uint64(1)<<(w/2)
	pairs := [][2]uint64{
		{0, 0}, {1, 1}, {0, 1}, {h, 1}, {h, h}, {n, 1}, {n, m}, {n, n}, {m, 1}, {m, m},
		{0xF, 1}, {0x10, 0x1F},
		{q, q}, {q, q >> 1}, {-q & m, q >> 1},
	}
	for i := range pairs {
		pairs[i][0] |= 0xA5A5A5A5A5A5A5A5 &^ m
		pairs[i][1] |= 0x5A5A5A5A5A5A5A5A &^ m
	}
	return pairs
}

// exitFlagCounts are the shift counts at width sz: 1, 2 and width-1, and
// the width and counts past it where the 5-bit mask allows them.
func exitFlagCounts(sz uint8) []int64 {
	w := int64(sz) * 8
	counts := []int64{1, 2, w - 1}
	if sz < 4 {
		counts = append(counts, w, w+1, 31)
	}
	return counts
}

// exitFlagImms are IMUL3's immediates at width sz.
func exitFlagImms(sz uint8) []int64 {
	imms := []int64{1, -1, 3, -0x80, 0x7FFF}
	if sz > 2 {
		imms = append(imms, 1<<30, -1<<31)
	}
	return imms
}

// TestTraceExitFlags runs every flag writer the trace accepts, at every
// width, on boundary operands (overflowing 64-bit products among them) and
// with incoming flags that are all clear or all set, through a guard exit
// right after the writer and a deopt exit before the first flag write of
// the next iteration.
func TestTraceExitFlags(t *testing.T) {
	guards := 0
	for _, sz := range []uint8{1, 2, 4, 8} {
		var cases []exitFlagCase
		add := func(op x86.Op, imm int64, pairs [][2]uint64) {
			w, ok := exitFlagWriter(op, sz, imm)
			if !ok {
				return
			}
			// A writer that passes no flag through meets each incoming
			// state on every other pair; one that does meets both on each.
			both := emu.IntKept(&w, 0, uint64(imm)) != 0
			for i, p := range pairs {
				for _, f0 := range []emu.Flags{{}, emu.FlagState(x86.AllFlags)} {
					if both || f0.CF == (i%2 == 1) {
						cases = append(cases, exitFlagCase{w: w, a: p[0], b: p[1], f0: f0})
					}
				}
			}
		}
		pairs := exitFlagOperands(sz)
		for _, op := range []x86.Op{x86.ADD, x86.SUB, x86.CMP, x86.AND, x86.OR, x86.XOR, x86.TEST,
			x86.INC, x86.DEC, x86.NEG, x86.IMUL} {
			add(op, 0, pairs)
		}
		for _, imm := range exitFlagImms(sz) {
			add(x86.IMUL3, imm, pairs[len(pairs)-6:])
		}
		for _, cnt := range exitFlagCounts(sz) {
			for _, op := range []x86.Op{x86.SHL, x86.SHR, x86.SAR} {
				add(op, cnt, pairs[:10])
			}
		}
		for _, c := range cases {
			if runExitFlags(t, c) {
				guards++
			}
		}
	}
	if guards == 0 {
		t.Fatal("no case left through a guard exit")
	}
}

// FuzzTraceExitFlags runs one random writer, width, operand pair, immediate
// and incoming flag state through the battery.
func FuzzTraceExitFlags(f *testing.F) {
	ops := []x86.Op{x86.ADD, x86.SUB, x86.CMP, x86.AND, x86.OR, x86.XOR, x86.TEST,
		x86.INC, x86.DEC, x86.NEG, x86.IMUL, x86.IMUL3, x86.SHL, x86.SHR, x86.SAR}
	f.Add(uint8(10), uint8(3), uint64(1<<32), uint64(1<<32), int64(0), uint8(0))
	f.Add(uint8(14), uint8(0), uint64(0x80), uint64(0), int64(9), uint8(0x3F))
	f.Add(uint8(7), uint8(1), uint64(0xFFFF), uint64(0), int64(0), uint8(0x01))
	f.Fuzz(func(t *testing.T, op, width uint8, a, b uint64, imm int64, flags uint8) {
		sz := uint8(1) << (width % 4)
		o := ops[int(op)%len(ops)]
		switch o {
		case x86.IMUL3:
			imm = int64(int32(imm))
			if sz == 2 {
				imm = int64(int16(imm))
			}
		case x86.SHL, x86.SHR, x86.SAR:
			imm &= 0xFF
		}
		w, ok := exitFlagWriter(o, sz, imm)
		if !ok {
			t.Skip("x86 has no such form")
		}
		runExitFlags(t, exitFlagCase{w: w, a: a, b: b, f0: emu.FlagState(x86.FlagSet(flags) & x86.AllFlags)})
	})
}
