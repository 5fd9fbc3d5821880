package lift

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/opt"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// flagTableShapes are operand shapes tried with every opcode. Jump and
// call targets are flagTarget, which flagTrial declares.
func flagTableShapes() []x86.Inst {
	rax, rcx := x86.R64(x86.RAX), x86.R64(x86.RCX)
	x0, x1 := x86.X(x86.XMM0), x86.X(x86.XMM1)
	cl := x86.RegOp(x86.RCX, 1)
	return []x86.Inst{
		{},
		{Dst: rax},
		{Dst: rax, Src: rcx},
		{Dst: x86.R32(x86.RAX), Src: x86.R32(x86.RCX)},
		{Dst: rax, Src: cl},
		{Dst: x86.R32(x86.RAX), Src: cl},
		{Dst: x86.R8L(x86.RAX), Src: cl},
		{Dst: rax, Src: x86.Imm(0, 1)},
		{Dst: rax, Src: x86.Imm(1, 1)},
		{Dst: rax, Src: x86.Imm(5, 1)},
		{Dst: rax, Src: x86.Imm(64, 1)},
		{Dst: x86.R16(x86.RAX), Src: x86.Imm(20, 1)},
		{Dst: rax, Src: rcx, Src2: x86.Imm(3, 1)},
		{Dst: x0, Src: x1},
		{Dst: x0, Src: x1, Src2: x86.Imm(1, 1)},
		{Dst: rax, Src: x1},
		{Dst: x0, Src: rax},
		{Dst: x86.Imm(flagTarget, 8)},
	}
}

const flagTarget = 0x2000

// flagTrial translates one instruction at 0x1000 in a fresh function. With
// pending false the state's six flags hold the function's six i1
// parameters; with pending true it is a machine block's entry state, whose
// flags start pending. A shape the opcode does not take may make translate
// fail or panic; both report ok false.
func flagTrial(in x86.Inst, pending bool) (s *state, bl *blockLift, params []*ir.Param, ok bool) {
	in.Addr, in.Len = 0x1000, 2
	f := ir.NewFunc("t", ir.I64, ir.I1, ir.I1, ir.I1, ir.I1, ir.I1, ir.I1)
	l := New(emu.NewMemory(0x10000), DefaultOptions())
	l.b = ir.NewBuilder(f)
	l.blockIR = map[uint64]*ir.Block{flagTarget: f.NewBlock("target"), 0x1002: f.NewBlock("fall")}
	l.Declare(flagTarget, "callee", abi.Sig(abi.ClassInt, abi.ClassInt))
	bl = &blockLift{mb: &machBlock{start: 0x1000}, irb: f.Blocks[0]}
	if pending {
		s = newBlockState(bl)
	} else {
		s = newState()
		for i := 0; i < numFlags; i++ {
			s.setFlag(i, f.Params[i])
		}
	}
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return s, bl, f.Params, l.translate(s, &in, abi.Sig(abi.ClassInt)) == nil
}

// TestFlagTableMatchesTranslate holds x86's flag table to the lifter: for
// every opcode translate accepts, in every shape it takes, each flag in the
// write set gets a new value, each flag outside it keeps the very ir.Value
// it had, and every flag phi a pending block state creates is in the read
// set. Liveness is only sound if all three hold.
func TestFlagTableMatchesTranslate(t *testing.T) {
	accepted := map[x86.Op]bool{}
	for op := x86.Op(1); op.String() != fmt.Sprintf("op%d", op); op++ {
		for _, shape := range flagTableShapes() {
			conds := []x86.Cond{0}
			if op == x86.JCC || op == x86.SETCC || op == x86.CMOVCC {
				conds = conds[:0]
				for c := x86.CondO; c <= x86.CondG; c++ {
					conds = append(conds, c)
				}
			}
			for _, c := range conds {
				in := shape
				in.Op, in.Cond = op, c
				read, written := in.FlagEffects()
				s, _, params, ok := flagTrial(in, false)
				if !ok {
					continue
				}
				accepted[op] = true
				for i := 0; i < numFlags; i++ {
					kept := s.flag[i] == ir.Value(params[i])
					if inW := written&(1<<uint(i)) != 0; inW == kept {
						t.Errorf("%v: flag %s in write set = %v, but translate kept it = %v", in, flagName[i], inW, kept)
					}
				}
				_, bl, _, _ := flagTrial(in, true)
				if phis := x86.FlagSet(bl.entered >> groupFlag); phis&^read != 0 {
					t.Errorf("%v: reads flags %06b, outside its read set %06b", in, phis, read)
				}
			}
		}
	}
	for _, op := range []x86.Op{x86.ADD, x86.ADC, x86.INC, x86.SHL, x86.SAR, x86.ROL, x86.STC,
		x86.JCC, x86.SETCC, x86.CMOVCC, x86.CALL, x86.RET, x86.IDIV, x86.UCOMISD, x86.ADDSD} {
		if !accepted[op] {
			t.Errorf("no shape of %v was accepted by translate", op)
		}
	}
}

// TestShiftFlagsOracle compares all six flags of shl, shr and sar, with
// immediate and CL counts, against the emulator. A count of 0 keeps every
// flag, AF is kept, and OF is kept for a count above 1, as the emulator
// does. An 8-bit sar past the operand width shifts out the sign bit into CF.
func TestShiftFlagsOracle(t *testing.T) {
	cl := x86.RegOp(x86.RCX, 1)
	var ops []x86.Inst
	for _, op := range []x86.Op{x86.SHL, x86.SHR, x86.SAR} {
		for _, dst := range []x86.Operand{x86.R64(x86.RAX), x86.R32(x86.RAX), x86.R8L(x86.RAX)} {
			ops = append(ops, x86.Inst{Op: op, Dst: dst, Src: cl})
			for _, n := range []int64{0, 1, 3, 7, 8, 31, 64} {
				ops = append(ops, x86.Inst{Op: op, Dst: dst, Src: x86.Imm(n, 1)})
			}
		}
	}
	for _, op := range ops {
		counts := []uint64{0} // rcx, which only a CL count reads
		if op.Src.Kind == x86.KReg {
			counts = []uint64{0, 1, 2, 7, 8, 9, 31, 32, 63, 64, 0xFF}
		}
		for _, in := range oracleOperands {
			for _, b := range counts {
				for _, cf0 := range []bool{false, true} {
					a := in[0]
					want := nativeFlags(t, op, a, b, cf0)
					got := liftedFlags(t, op, a, b, cf0, x86.AllFlags)
					wantBits := [numFlags]bool{want.CF, want.PF, want.AF, want.ZF, want.SF, want.OF}
					if got != wantBits {
						t.Errorf("%v with rax=%#x rcx=%#x cf0=%v: lifted %v, emulator %v", op, a, b, cf0, got, wantBits)
					}
				}
			}
		}
	}
}

// TestLiftShiftRotateFlags runs shifts and rotates whose flags a later
// instruction reads, at O0 and O3: shr's CF is the last bit shifted out, a
// CL count of 0 keeps the flags of the cmp before it, a rotate keeps ZF, and
// a rotate's CF and OF match the emulator's, at a count of 1, above it, and
// at a count that is a multiple of the operand width.
func TestLiftShiftRotateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []uint64
		body func(b *asm.Builder)
	}{
		{"shr_setc", []uint64{3, 0, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.SHR, x86.R64(x86.RAX), x86.Imm(1, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondB, Dst: x86.R8L(x86.RAX)})
		}},
		{"shl_cl0_sete", []uint64{5, 5, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RDX))
			b.I(x86.CMP, x86.R64(x86.RDI), x86.R64(x86.RSI))
			b.I(x86.SHL, x86.R64(x86.RAX), x86.RegOp(x86.RCX, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondE, Dst: x86.R8L(x86.RAX)})
		}},
		{"rol_sete", []uint64{5, 5, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.CMP, x86.R64(x86.RDI), x86.R64(x86.RSI))
			b.I(x86.ROL, x86.R64(x86.RAX), x86.Imm(3, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondE, Dst: x86.R8L(x86.RAX)})
		}},
		{"ror_setc", []uint64{1, 0, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.CLC)
			b.I(x86.ROR, x86.R64(x86.RAX), x86.Imm(1, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondB, Dst: x86.R8L(x86.RAX)})
		}},
		{"ror_seto", []uint64{1, 0, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.ROR, x86.R64(x86.RAX), x86.Imm(1, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondO, Dst: x86.R8L(x86.RAX)})
		}},
		{"rol8_by2_seto", []uint64{0x40, 0, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.ROL, x86.R8L(x86.RAX), x86.Imm(2, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondO, Dst: x86.R8L(x86.RAX)})
		}},
		{"ror8_by8_setc", []uint64{0x80, 0, 0}, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
			b.I(x86.ROR, x86.R8L(x86.RAX), x86.Imm(8, 1))
			b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondB, Dst: x86.R8L(x86.RAX)})
		}},
	}
	sig := abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt, abi.ClassInt)
	for _, c := range cases {
		mem := buildFunc(t, func(b *asm.Builder) {
			c.body(b)
			b.I(x86.MOVZX, x86.R32(x86.RAX), x86.R8L(x86.RAX))
			b.Ret()
		})
		m := emu.NewMachine(mem)
		want, err := m.Call(codeBase, emu.CallArgs{Ints: c.args}, 1000)
		if err != nil {
			t.Fatalf("%s: emulate: %v", c.name, err)
		}
		for _, lv := range []struct {
			name string
			cfg  opt.Config
		}{{"O0", opt.Config{}}, {"O3", opt.O3()}} {
			f, err := New(mem, DefaultOptions()).LiftFunc(codeBase, "f", sig)
			if err != nil {
				t.Fatalf("%s: lift: %v", c.name, err)
			}
			opt.Optimize(f, lv.cfg)
			args := make([]ir.RV, len(c.args))
			for i, v := range c.args {
				args[i] = ir.RV{Lo: v}
			}
			got, err := ir.NewInterp(mem).CallFunc(f, args)
			if err != nil {
				t.Fatalf("%s %s: interp: %v", c.name, lv.name, err)
			}
			if got.Lo != want {
				t.Errorf("%s %s: machine %d, lifted %d\n%s", c.name, lv.name, want, got.Lo, ir.FormatFunc(f))
			}
		}
	}
}

// TestLiftDeadOnArrival bounds the IR the lifter builds that nothing uses:
// the six Section VI element and line kernels lift to at most 1300 IR
// instructions (1765 when every written flag was built), and one DCE pass
// leaves exactly the 730 it left then, so liveness removed only dead IR.
func TestLiftDeadOnArrival(t *testing.T) {
	mem := emu.NewMemory(0x10000000)
	c, err := kernels.Build(mem, 9)
	if err != nil {
		t.Fatal(err)
	}
	subjects := []struct {
		name  string
		entry uint64
		sig   abi.Signature
	}{
		{"direct_elem", c.DirectElem, kernels.ElemSig},
		{"flat_elem", c.FlatElem, kernels.ElemSig},
		{"sorted_elem", c.SortedElem, kernels.ElemSig},
		{"direct_line", c.DirectLine, kernels.LineSig},
		{"flat_line", c.FlatLine, kernels.LineSig},
		{"sorted_line", c.SortedLine, kernels.LineSig},
	}
	raw, live := 0, 0
	for _, sub := range subjects {
		f, err := New(mem, DefaultOptions()).LiftFunc(sub.entry, sub.name, sub.sig)
		if err != nil {
			t.Fatalf("lift %s: %v", sub.name, err)
		}
		raw += f.NumInsts()
		opt.DCE(f)
		live += f.NumInsts()
	}
	t.Logf("six kernels: %d IR instructions lifted, %d after DCE", raw, live)
	if raw > 1300 {
		t.Errorf("the six kernels lift to %d IR instructions, want at most 1300", raw)
	}
	if live != 730 {
		t.Errorf("after DCE the six kernels have %d IR instructions, want 730", live)
	}
}
