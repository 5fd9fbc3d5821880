package lift

// Per-flag oracle tests: for each arithmetic opcode and boundary operand
// pair, run the instruction natively in the emulator and compare every one
// of the six status flags (CF, PF, AF, ZF, SF, OF) — individually, not as a
// packed word — against the flags the lifter materializes as IR. The
// differential suite in internal/crosstest only observes flags indirectly
// (through jcc/setcc/cmov); this test pins the bit-level contract of
// setArithFlags and setMulFlags themselves, including inc's CF
// preservation, adc's and sbb's carry in and imul's overflow test. A flag
// is compared where the integer kernel defines it from the inputs; x86
// leaves imul's ZF, SF, PF and AF undefined.

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// flagName mirrors the fCF..fOF index order.
var flagName = [numFlags]string{"CF", "PF", "AF", "ZF", "SF", "OF"}

// oracleOps are the instructions under test. Every op reads RAX (and RCX
// where it has a source operand); inc additionally must preserve the
// incoming CF, and adc and sbb add it in, which the varying cf0 seed
// exercises.
var oracleOps = []struct {
	name string
	inst x86.Inst
}{
	{"add", x86.Inst{Op: x86.ADD, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)}},
	{"sub", x86.Inst{Op: x86.SUB, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)}},
	{"cmp", x86.Inst{Op: x86.CMP, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)}},
	{"inc", x86.Inst{Op: x86.INC, Dst: x86.R64(x86.RAX)}},
	{"adc", x86.Inst{Op: x86.ADC, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)}},
	{"sbb", x86.Inst{Op: x86.SBB, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)}},
	{"adc32", x86.Inst{Op: x86.ADC, Dst: x86.R32(x86.RAX), Src: x86.R32(x86.RCX)}},
	{"imul", x86.Inst{Op: x86.IMUL, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)}},
	{"imul32", x86.Inst{Op: x86.IMUL, Dst: x86.R32(x86.RAX), Src: x86.R32(x86.RCX)}},
	{"imul16", x86.Inst{Op: x86.IMUL, Dst: x86.RegOp(x86.RAX, 2), Src: x86.RegOp(x86.RCX, 2)}},
	{"imul3", x86.Inst{Op: x86.IMUL3, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX), Src2: x86.Imm(-3, 8)}},
}

// oracleOperands are boundary pairs chosen to flip each flag at least once:
// zero results (ZF), sign changes (SF), signed overflow at both extremes
// (OF), unsigned wraparound (CF), low-nibble carries (AF), and both parities
// of the result byte (PF).
var oracleOperands = [][2]uint64{
	{0, 0},
	{0, 1},
	{1, 1},
	{1, 2},
	{3, 1},
	{0xFFFFFFFFFFFFFFFF, 0},
	{0xFFFFFFFFFFFFFFFF, 1},
	{0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF},
	{0x7FFFFFFFFFFFFFFF, 1},
	{0x7FFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF},
	{0x8000000000000000, 1},
	{0x8000000000000000, 0x8000000000000000},
	{0x8000000000000000, 0x7FFFFFFFFFFFFFFF},
	{0x123456789ABCDEF0, 0x0F0F0F0F0F0F0F0F},
	{0x10, 0x01},
	{0x0F, 0x01},
	{0x10000, 0x10000},
	{1 << 32, 1 << 32},
	{1 << 32, 1 << 31},
	{0xFFFFFFFF00000000, 1 << 31},
}

// nativeFlags assembles {mov rax,a; mov rcx,b; stc|clc; op; ret}, runs it in
// the emulator, and returns the machine's architectural flags.
func nativeFlags(t *testing.T, op x86.Inst, a, b uint64, cf0 bool) emu.Flags {
	t.Helper()
	bld := asm.NewBuilder()
	bld.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(int64(a), 8))
	bld.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(int64(b), 8))
	if cf0 {
		bld.I(x86.STC)
	} else {
		bld.I(x86.CLC)
	}
	bld.Emit(op)
	bld.Ret()
	code, _, err := bld.Assemble(0x400000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x400000, code, "oracle"); err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	if _, err := m.Call(0x400000, emu.CallArgs{}, 1000); err != nil {
		t.Fatalf("emulate %s(%#x, %#x): %v", op.Op, a, b, err)
	}
	return m.Flags
}

// liftedFlags seeds a symbolic register state with the same operands and
// incoming CF, translates the single instruction through the lifter, packs
// the six resulting flag values into one i64 (bit i = flag i), and
// evaluates it with the IR interpreter. A flag of defined must not be left
// undef; another one that is reads as false.
func liftedFlags(t *testing.T, op x86.Inst, a, b uint64, cf0 bool, defined x86.FlagSet) [numFlags]bool {
	t.Helper()
	mem := emu.NewMemory(0x1000000)
	f := ir.NewFunc("flags_oracle", ir.I64)
	bld := ir.NewBuilder(f)
	l := &Lifter{Mem: mem, Opts: DefaultOptions(), Module: &ir.Module{}, b: bld}
	s := newState()
	s.defGPR(x86.RAX)[FI64] = ir.Int(ir.I64, a)
	s.defGPR(x86.RCX)[FI64] = ir.Int(ir.I64, b)
	for i := 0; i < numFlags; i++ {
		s.setFlag(i, ir.Bool(false))
	}
	s.setFlag(fCF, ir.Bool(cf0))

	if err := l.translate(s, &op, abi.Signature{}); err != nil {
		t.Fatalf("translate %s: %v", op.Op, err)
	}

	packed := ir.Value(ir.Int(ir.I64, 0))
	for i := 0; i < numFlags; i++ {
		v := s.readFlag(i)
		if _, undef := v.(*ir.Undef); undef {
			if defined&(1<<i) != 0 {
				t.Fatalf("translate %s left flag %s undefined", op.Op, flagName[i])
			}
			continue
		}
		bit := bld.Shl(bld.ZExt(v, ir.I64), ir.Int(ir.I64, uint64(i)))
		packed = bld.Or(packed, bit)
	}
	bld.Ret(packed)
	if err := ir.Verify(f); err != nil {
		t.Fatalf("flag-pack function does not verify: %v\n%s", err, ir.FormatFunc(f))
	}
	res, err := ir.NewInterp(mem).CallFunc(f, nil)
	if err != nil {
		t.Fatalf("interpret flag pack: %v\n%s", err, ir.FormatFunc(f))
	}
	var out [numFlags]bool
	for i := 0; i < numFlags; i++ {
		out[i] = res.Lo&(1<<uint(i)) != 0
	}
	return out
}

// TestArithFlagsOracle checks each flag the kernel defines individually for
// every opcode × operand pair × incoming-CF combination.
func TestArithFlagsOracle(t *testing.T) {
	for _, op := range oracleOps {
		op := op
		t.Run(op.name, func(t *testing.T) {
			for _, in := range oracleOperands {
				for _, cf0 := range []bool{false, true} {
					a, b := in[0], in[1]
					want := nativeFlags(t, op.inst, a, b, cf0)
					_, defined, _ := emu.Int(&op.inst, a, b, &emu.Flags{CF: cf0})
					got := liftedFlags(t, op.inst, a, b, cf0, defined)
					wantBits := [numFlags]bool{want.CF, want.PF, want.AF, want.ZF, want.SF, want.OF}
					for i := 0; i < numFlags; i++ {
						if defined&(1<<i) != 0 && got[i] != wantBits[i] {
							t.Errorf("%s(%#x, %#x) cf0=%v: %s = %v, emulator says %v",
								op.name, a, b, cf0, flagName[i], got[i], wantBits[i])
						}
					}
				}
			}
		})
	}
}

// TestIncPreservesCF pins the special case directly: inc must write ZF, SF,
// OF, AF, PF like an add-by-one but leave CF exactly as it found it.
func TestIncPreservesCF(t *testing.T) {
	inc := x86.Inst{Op: x86.INC, Dst: x86.R64(x86.RAX)}
	for _, a := range []uint64{0, 1, 0xFFFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF} {
		for _, cf0 := range []bool{false, true} {
			got := liftedFlags(t, inc, a, 0, cf0, x86.AllFlags)
			if got[fCF] != cf0 {
				t.Errorf("inc(%#x) with cf0=%v: lifted CF = %v, want preserved", a, cf0, got[fCF])
			}
			want := nativeFlags(t, inc, a, 0, cf0)
			if want.CF != cf0 {
				t.Errorf("inc(%#x) with cf0=%v: emulator CF = %v, want preserved", a, cf0, want.CF)
			}
		}
	}
}
