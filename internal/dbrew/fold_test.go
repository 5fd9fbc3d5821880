package dbrew

import (
	"errors"
	"testing"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// runFresh runs fn on a fresh machine, so no state of an earlier run (the
// flags above all) leaks into it. interp selects the interpreter.
func runFresh(t *testing.T, mem *emu.Memory, fn uint64, args []uint64, interp bool) uint64 {
	t.Helper()
	m := emu.NewMachine(mem)
	m.Interp = interp
	v, err := m.Call(fn, emu.CallArgs{Ints: args}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFoldRegressions pins specializations that once returned a value other
// than the original's: an 8- or 16-bit sar by at least the operand width,
// whose CF is the sign bit; an adc of an all-ones source with a known carry
// of 1, which carries out; a shl by CL after an eliminated cmp, which at
// CL = 0 passes the cmp's ZF through; and an stc emitted after an
// eliminated cmp, which sets the CF the cmp left known. Each returns 1. Only
// the shift by an unknown CL must refuse; with the count known, the shift is
// emitted with an immediate count, whose flags do not depend on the cmp.
func TestFoldRegressions(t *testing.T) {
	rax, rcx, rdi, rsi := x86.R64(x86.RAX), x86.R64(x86.RCX), x86.R64(x86.RDI), x86.R64(x86.RSI)
	setcc := func(b *asm.Builder, c x86.Cond) {
		b.I(x86.MOV, x86.R32(x86.RAX), x86.Imm(0, 4))
		b.Emit(x86.Inst{Op: x86.SETCC, Cond: c, Dst: x86.R8L(x86.RAX)})
		b.Ret()
	}
	cases := []struct {
		name    string
		build   func(b *asm.Builder)
		fixed   []uint64 // values of the leading parameters, fixed
		args    []uint64
		refuses bool
	}{
		{"sar8", func(b *asm.Builder) {
			b.I(x86.MOV, rax, rdi)
			b.I(x86.SAR, x86.R8L(x86.RAX), x86.Imm(9, 1))
			setcc(b, x86.CondB)
		}, []uint64{0x80}, []uint64{0x80}, false},
		{"sar16", func(b *asm.Builder) {
			b.I(x86.MOV, rax, rdi)
			b.I(x86.SAR, x86.R16(x86.RAX), x86.Imm(17, 1))
			setcc(b, x86.CondB)
		}, []uint64{0x8000}, []uint64{0x8000}, false},
		{"adc", func(b *asm.Builder) {
			b.I(x86.MOV, rax, rdi)
			b.I(x86.MOV, rcx, rsi)
			b.I(x86.CMP, rax, x86.Imm(6, 8))
			b.I(x86.ADC, rax, rcx)
			setcc(b, x86.CondB)
		}, []uint64{5, ^uint64(0)}, []uint64{5, ^uint64(0)}, false},
		{"shl-cl", func(b *asm.Builder) {
			b.I(x86.MOV, rcx, rsi)
			b.I(x86.MOV, rax, x86.Imm(1, 8))
			b.I(x86.CMP, rdi, x86.Imm(5, 8))
			b.I(x86.SHL, rax, x86.RegOp(x86.RCX, 1))
			setcc(b, x86.CondE)
		}, []uint64{5}, []uint64{5, 0}, true},
		{"stc", func(b *asm.Builder) {
			b.I(x86.CMP, rdi, x86.Imm(5, 8))
			b.I(x86.STC)
			setcc(b, x86.CondB)
		}, []uint64{5}, []uint64{5}, false},
		{"shl-known-cl", func(b *asm.Builder) {
			b.I(x86.MOV, rcx, rsi)
			b.I(x86.MOV, rax, x86.R64(x86.RDX))
			b.I(x86.CMP, rdi, x86.Imm(5, 8))
			b.I(x86.SHL, rax, x86.RegOp(x86.RCX, 1))
			setcc(b, x86.CondE)
		}, []uint64{5, 3}, []uint64{5, 3, 0}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkSpecialization(t, c.build, c.fixed, c.args, c.refuses) })
	}
}

// checkSpecialization rewrites the program with its leading parameters
// fixed and checks that the original returns 1, the specialization the
// same, and that the rewrite refused (fell back) only if it should.
func checkSpecialization(t *testing.T, build func(b *asm.Builder), fixed, args []uint64, refuses bool) {
	mem, _ := buildCode(t, build)
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt, abi.ClassInt))
	for i, v := range fixed {
		r.SetPar(i, v)
	}
	spec, err := r.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	orig := runFresh(t, mem, codeBase, args, true)
	got := runFresh(t, mem, spec, args, false)
	if orig != 1 || got != orig || r.Stats.Failed != refuses {
		t.Errorf("original returns %d, specialization %d (fallback: %v)", orig, got, r.Stats.Err)
	}
}

// foldShape is one operand shape of an integer-kernel opcode in the fold
// test: the instruction takes rax (the destination) and rcx (the source or
// count) at the given widths.
type foldShape struct {
	op      x86.Op
	dst     uint8 // destination width; 0 for the implicit-operand opcodes
	src     uint8 // source width; 0 for none, 1 with a shift for CL
	immSrc  bool  // the source is an immediate (IMUL3's, or a shift count)
	widthOf uint8 // the width the edge values and counts are taken at
}

func foldShapes() []foldShape {
	var out []foldShape
	for _, sz := range []uint8{1, 2, 4, 8} {
		for _, op := range []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.CMP,
			x86.AND, x86.OR, x86.XOR, x86.TEST} {
			out = append(out, foldShape{op: op, dst: sz, src: sz, widthOf: sz})
		}
		for _, op := range []x86.Op{x86.NOT, x86.NEG, x86.INC, x86.DEC} {
			out = append(out, foldShape{op: op, dst: sz, widthOf: sz})
		}
		for _, op := range []x86.Op{x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR} {
			out = append(out, foldShape{op: op, dst: sz, src: 1, widthOf: sz},
				foldShape{op: op, dst: sz, src: 1, immSrc: true, widthOf: sz})
		}
		if sz >= 2 {
			out = append(out, foldShape{op: x86.IMUL, dst: sz, src: sz, widthOf: sz},
				foldShape{op: x86.IMUL3, dst: sz, src: sz, immSrc: true, widthOf: sz},
				foldShape{op: x86.POPCNT, dst: sz, src: sz, widthOf: sz})
		}
		if sz <= 2 {
			for _, op := range []x86.Op{x86.MOVZX, x86.MOVSX} {
				out = append(out, foldShape{op: op, dst: 4, src: sz, widthOf: sz},
					foldShape{op: op, dst: 8, src: sz, widthOf: sz})
			}
		}
	}
	return append(out, foldShape{op: x86.MOVSXD, dst: 8, src: 4, widthOf: 4},
		foldShape{op: x86.CQO, widthOf: 8}, foldShape{op: x86.CDQ, widthOf: 4},
		foldShape{op: x86.CDQE, widthOf: 4})
}

// inst builds the shape's instruction; b is the source value, used as the
// immediate of an immediate form.
func (s foldShape) inst(b uint64) x86.Inst {
	in := x86.Inst{Op: s.op}
	if s.dst != 0 {
		in.Dst = x86.RegOp(x86.RAX, s.dst)
	}
	switch {
	case s.op == x86.IMUL3:
		in.Src, in.Src2 = x86.RegOp(x86.RCX, s.src), x86.Imm(int64(int32(b)), 4)
		if s.dst == 2 {
			in.Src2 = x86.Imm(int64(int16(b)), 2)
		}
	case s.immSrc:
		in.Src = x86.Imm(int64(b&0xFF), 1)
	case s.src != 0:
		in.Src = x86.RegOp(x86.RCX, s.src)
	}
	return in
}

// foldEdges returns the fold test's operand values at a width: 0, 1, the
// sign bit and all ones, with garbage above the width that partial-register
// writes must keep.
func foldEdges(sz uint8) []uint64 {
	mask := ^uint64(0) >> (64 - 8*uint(sz))
	hi := uint64(0xA5A5A5A5A5A5A5A5) &^ mask
	return []uint64{hi, hi | 1, hi | (mask>>1 + 1), hi | mask}
}

// foldCounts returns the shift counts at a width: 0, 1, width-1, width,
// width+1, 31 and 63.
func foldCounts(sz uint8) []uint64 {
	w := uint64(sz) * 8
	return []uint64{0, 1, w - 1, w, w + 1, 31, 63}
}

// foldConds are the conditions that read one flag each. AF, the sixth
// flag, is read by no condition.
var foldConds = []struct {
	c    x86.Cond
	flag x86.FlagSet
}{{x86.CondO, x86.FlagOF}, {x86.CondB, x86.FlagCF}, {x86.CondE, x86.FlagZF},
	{x86.CondS, x86.FlagSF}, {x86.CondP, x86.FlagPF}}

// checkFold rewrites programs around one instruction with every input known
// and compares each against the interpreter on a fresh machine: first the
// result, then each flag a condition reads through SETcc. The inputs are rax
// = a, rcx = b and a carry-in set by a compare that DBrew evaluates away.
// The rewrite must fold the instruction and every flag it defines or
// leaves alone; a flag it writes without defining must make the rewrite
// refuse, never fold to a value.
func checkFold(t *testing.T, s foldShape, a, b, carry uint64) {
	t.Helper()
	in := s.inst(b)
	x, y, out, ok := emu.IntOperands(&in)
	if !ok {
		t.Fatalf("%v is not a kernel opcode", in.Op)
	}
	// One program returns the result, one per condition its SETcc.
	tails := []func(*asm.Builder){func(bd *asm.Builder) {
		if out.Reg != x86.RAX {
			bd.I(x86.MOV, x86.R64(x86.RAX), x86.R64(out.Reg))
		}
	}}
	for _, c := range foldConds {
		tails = append(tails, func(bd *asm.Builder) {
			bd.I(x86.MOV, x86.R32(x86.RAX), x86.Imm(0, 4))
			bd.Emit(x86.Inst{Op: x86.SETCC, Cond: c.c, Dst: x86.R8L(x86.RAX)})
		})
	}
	var entries []asm.Label
	mem, labels := buildCode(t, func(bd *asm.Builder) {
		for _, tail := range tails {
			l := bd.NewLabel()
			bd.Bind(l)
			entries = append(entries, l)
			bd.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			bd.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RSI))
			bd.I(x86.XOR, x86.R32(x86.R8), x86.R32(x86.R8))
			bd.I(x86.CMP, x86.R64(x86.R8), x86.R64(x86.RDX)) // CF = carry != 0
			bd.Emit(in)
			tail(bd)
			bd.Ret()
		}
	})
	args := []uint64{a, b, carry}
	// rewrite returns program i's result, its specialization's, and the
	// rewrite's error when it fell back.
	rewrite := func(i int) (uint64, uint64, error) {
		entry := labels[entries[i]]
		r := NewRewriter(mem, entry, abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt, abi.ClassInt))
		for i, v := range args {
			r.SetPar(i, v)
		}
		spec, err := r.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stats.Failed && r.Stats.Emitted != 2 {
			t.Fatalf("%v with %#x, %#x, carry %d: did not fold, emitted %d instructions",
				in, a, b, carry, r.Stats.Emitted)
		}
		return runFresh(t, mem, entry, args, true), runFresh(t, mem, spec, args, false), r.Stats.Err
	}

	want, got, err := rewrite(0)
	if err != nil || got != want {
		t.Fatalf("%v with %#x, %#x, carry %d: result %#x, want %#x (fallback: %v)", in, a, b, carry, got, want, err)
	}

	val := func(o x86.Operand) uint64 {
		switch {
		case o.Kind == x86.KImm:
			return uint64(o.Imm)
		case o.Kind == x86.KReg && o.Reg == x86.RCX:
			return b
		}
		return a
	}
	_, defined, _ := emu.Int(&in, val(x), val(y), &emu.Flags{CF: carry != 0})
	fx := in // a shift by CL writes the flags of its count
	if y.Kind == x86.KReg {
		fx.Src = x86.Imm(int64(b), 1)
	}
	kept := x86.AllFlags &^ flagWrites(&fx)
	for i, c := range foldConds {
		want, got, err := rewrite(i + 1)
		switch {
		case err != nil && (defined|kept)&c.flag != 0:
			t.Fatalf("%v with %#x, %#x, carry %d: set%v did not fold: %v", in, a, b, carry, c.c, err)
		case err != nil && !errors.Is(err, ErrUnsupported):
			t.Fatalf("%v: set%v: %v", in, c.c, err)
		case err == nil && (defined|kept)&c.flag == 0:
			t.Fatalf("%v with %#x, %#x, carry %d: set%v folded a flag the instruction leaves undefined",
				in, a, b, carry, c.c)
		case got != want:
			t.Fatalf("%v with %#x, %#x, carry %d: set%v gives %d, want %d", in, a, b, carry, c.c, got, want)
		}
	}
}

// TestFoldMatchesInterp runs checkFold over every kernel opcode and width,
// the edge values, the shift counts and both carries.
func TestFoldMatchesInterp(t *testing.T) {
	for _, s := range foldShapes() {
		as, bs := foldEdges(s.widthOf), foldEdges(s.widthOf)
		switch s.op {
		case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
			bs = foldCounts(s.widthOf)
		case x86.NOT, x86.NEG, x86.INC, x86.DEC, x86.CQO, x86.CDQ, x86.CDQE:
			bs = []uint64{0}
		case x86.MOVZX, x86.MOVSX, x86.MOVSXD, x86.POPCNT:
			as = []uint64{0}
		}
		for _, a := range as {
			for _, b := range bs {
				checkFold(t, s, a, b, 0)
				checkFold(t, s, a, b, 1)
			}
		}
	}
}

// FuzzFoldMatchesInterp runs checkFold on arbitrary operands of any shape.
func FuzzFoldMatchesInterp(f *testing.F) {
	f.Add(uint16(0), uint64(5), ^uint64(0), true)
	f.Add(uint16(3), uint64(0x80), uint64(9), false)
	f.Add(uint16(40), uint64(0x8000_0000_0000_0000), uint64(63), true)
	shapes := foldShapes()
	f.Fuzz(func(t *testing.T, shape uint16, a, b uint64, carry bool) {
		c := uint64(0)
		if carry {
			c = 1
		}
		checkFold(t, shapes[int(shape)%len(shapes)], a, b, c)
	})
}
