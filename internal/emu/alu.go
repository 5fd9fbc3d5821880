package emu

import (
	"math/bits"

	"repro/internal/x86"
)

// The integer kernel: the one definition of what each integer instruction
// computes from concrete values. The interpreter calls an opcode's function
// through intOp's table, the block engine binds the same function at
// translate time, and DBrew evaluates an instruction whose inputs are known
// through Int, so the three cannot disagree about a result or a flag.

// intFn is one opcode's definition. a and b are the values of its inputs,
// sz the width of a in bytes, and f the flags, which it updates in place.
// It returns the value written, the flags it defined from its inputs, and
// whether it writes its destination at all.
type intFn func(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool)

// intOp returns the definition of in's opcode and the operands that feed
// its inputs a and b (b is nil for one-input opcodes) and receive its
// result; fn is nil for an opcode outside the kernel.
func intOp(in *x86.Inst) (fn intFn, a, b, out *x86.Operand) {
	a, b, out = &in.Dst, &in.Src, &in.Dst
	switch in.Op {
	case x86.ADD:
		fn = intAdd
	case x86.ADC:
		fn = intAdc
	case x86.SUB:
		fn = intSub
	case x86.SBB:
		fn = intSbb
	case x86.CMP:
		fn = intCmp
	case x86.AND:
		fn = intAnd
	case x86.OR:
		fn = intOr
	case x86.XOR:
		fn = intXor
	case x86.TEST:
		fn = intTest
	case x86.NOT:
		fn, b = intNot, nil
	case x86.NEG:
		fn, b = intNeg, nil
	case x86.INC:
		fn, b = intInc, nil
	case x86.DEC:
		fn, b = intDec, nil
	case x86.IMUL:
		fn = intIMul
	case x86.IMUL3:
		fn, a, b = intIMul, &in.Src, &in.Src2
	case x86.POPCNT:
		fn, a, b = intPopcnt, &in.Src, nil
	case x86.MOVZX:
		fn, a, b = intZext, &in.Src, nil
	case x86.MOVSX, x86.MOVSXD:
		fn, a, b = intSext, &in.Src, nil
	case x86.CDQE:
		fn, a, b, out = intSext, &eaxOp, nil, &raxOp
	case x86.CDQ:
		fn, a, b, out = intSignFill, &eaxOp, nil, &edxOp
	case x86.CQO:
		fn, a, b, out = intSignFill, &raxOp, nil, &rdxOp
	case x86.SHL:
		fn = intShl
	case x86.SHR:
		fn = intShr
	case x86.SAR:
		fn = intSar
	case x86.ROL:
		fn = intRol
	case x86.ROR:
		fn = intRor
	}
	return fn, a, b, out
}

// The implicit operands of CDQE, CDQ and CQO.
var eaxOp, raxOp, edxOp, rdxOp = x86.R32(x86.RAX), x86.R64(x86.RAX), x86.R32(x86.RDX), x86.R64(x86.RDX)

// IntOperands names the operands of an integer-kernel instruction: a and b
// feed the kernel's two inputs (b is empty for one-input opcodes) and out
// receives the result. ok is false for an opcode outside the kernel.
func IntOperands(in *x86.Inst) (a, b, out x86.Operand, ok bool) {
	fn, pa, pb, pout := intOp(in)
	if fn == nil {
		return a, b, out, false
	}
	if pb != nil {
		b = *pb
	}
	return *pa, b, *pout, true
}

// Int evaluates the integer-kernel instruction in on the values a and b of
// the operands IntOperands names, with the flags *f before it, and leaves
// the flags after it in *f. It returns the value it writes and the flags it
// defined from its inputs: of the others, those x86 leaves undefined carry
// the emulator's choice and those it does not write keep their values.
// write is false when the destination is left alone: by CMP and TEST, and
// by a shift or rotate whose masked count is 0.
func Int(in *x86.Inst, a, b uint64, f *Flags) (res uint64, defined x86.FlagSet, write bool) {
	fn, x, _, _ := intOp(in)
	return fn(a, b, x.Size, f)
}

// IntKept returns the flags Int passes through from its incoming state when
// it evaluates in on a and b: those that come out different from two
// incoming states that differ in every flag.
func IntKept(in *x86.Inst, a, b uint64) x86.FlagSet {
	f0, f1 := Flags{}, FlagState(x86.AllFlags)
	Int(in, a, b, &f0)
	Int(in, a, b, &f1)
	return f0.Set() ^ f1.Set()
}

// incFlags are the flags inc and dec define; they keep CF.
const incFlags = x86.AllFlags &^ x86.FlagCF

func intAdd(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return addCarry(a, b, 0, sz, f), x86.AllFlags, true
}

func intAdc(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return addCarry(a, b, carry(f), sz, f), x86.AllFlags, true
}

func intSub(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return subBorrow(a, b, 0, sz, f), x86.AllFlags, true
}

func intSbb(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return subBorrow(a, b, carry(f), sz, f), x86.AllFlags, true
}

func intCmp(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return subBorrow(a, b, 0, sz, f), x86.AllFlags, false
}

// The logic ops clear CF and OF and set ZF, SF and PF from the result. x86
// leaves AF undefined; the kernel clears it and counts it as defined, which
// keeps DBrew's abstract states, and so its output, the same whichever
// flag-setting op came last. No instruction the emulator runs reads AF.
func intAnd(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return logic(a&b, sz, f), x86.AllFlags, true
}

func intOr(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return logic(a|b, sz, f), x86.AllFlags, true
}

func intXor(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return logic(a^b, sz, f), x86.AllFlags, true
}

func intTest(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return logic(a&b, sz, f), x86.AllFlags, false
}

func intNot(a, _ uint64, sz uint8, _ *Flags) (uint64, x86.FlagSet, bool) {
	return trunc(^a, sz), 0, true
}

// intNeg is 0 - a; its CF (set unless a is 0) is the subtraction's borrow.
func intNeg(a, _ uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	return subBorrow(0, a, 0, sz, f), x86.AllFlags, true
}

func intInc(a, _ uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	cf := f.CF
	res := addCarry(a, 1, 0, sz, f)
	f.CF = cf
	return res, incFlags, true
}

func intDec(a, _ uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	cf := f.CF
	res := subBorrow(a, 1, 0, sz, f)
	f.CF = cf
	return res, incFlags, true
}

// intIMul is the truncating signed multiply. CF and OF report that the
// product does not fit the operand width: below 8 bytes the product is
// exact in int64, at 8 bytes it fits when its signed high word is the sign
// of its low word. x86 leaves ZF, SF and PF undefined (the emulator sets
// them from the result) and AF is kept.
func intIMul(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	sa, sb := signExtend(a, sz), signExtend(b, sz)
	full := sa * sb
	res := trunc(uint64(full), sz)
	ov := signExtend(res, sz) != full
	if sz == 8 {
		ov = mulHi(sa, sb) != full>>63
	}
	f.CF, f.PF, f.ZF, f.SF, f.OF = ov, parity(res), res == 0, signBit(res, sz), ov
	return res, x86.FlagCF | x86.FlagOF, true
}

// mulHi returns the high 64 bits of the signed 128-bit product a*b: the
// unsigned high word, less b for a negative a and a for a negative b.
func mulHi(a, b int64) int64 {
	hi, _ := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return int64(hi)
}

// intPopcnt clears every flag but ZF, which is set for a zero source.
func intPopcnt(a, _ uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	v := trunc(a, sz)
	*f = Flags{ZF: v == 0}
	return uint64(bits.OnesCount64(v)), x86.AllFlags, true
}

func intZext(a, _ uint64, sz uint8, _ *Flags) (uint64, x86.FlagSet, bool) {
	return trunc(a, sz), 0, true
}

func intSext(a, _ uint64, sz uint8, _ *Flags) (uint64, x86.FlagSet, bool) {
	return uint64(signExtend(a, sz)), 0, true
}

// intSignFill is CQO/CDQ: every bit of the result is a's sign bit.
func intSignFill(a, _ uint64, sz uint8, _ *Flags) (uint64, x86.FlagSet, bool) {
	return uint64(signExtend(a, sz) >> 63), 0, true
}

func intShl(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	n, w := shiftCount(b, sz), uint64(sz)*8
	if n == 0 {
		return a, 0, false
	}
	v := trunc(a, sz)
	return shifted(v, trunc(v<<n, sz), n, sz, n <= w && v>>(w-n)&1 != 0, f)
}

func intShr(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	n := shiftCount(b, sz)
	if n == 0 {
		return a, 0, false
	}
	v := trunc(a, sz)
	return shifted(v, v>>n, n, sz, v>>(n-1)&1 != 0, f)
}

// intSar shifts the sign-extended value, so once the count reaches the
// operand width the result is all sign bits and so is CF.
func intSar(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	n := shiftCount(b, sz)
	if n == 0 {
		return a, 0, false
	}
	sv := signExtend(a, sz)
	return shifted(trunc(a, sz), trunc(uint64(sv>>n), sz), n, sz, sv>>(n-1)&1 != 0, f)
}

// intRol and intRor set CF to the bit rotated into the end of the result,
// bit 0 for rol and the top bit for ror, and OF as x86 defines it for a
// count of 1: the top bit XOR CF for rol, the top two bits XORed for ror.
// x86 leaves OF undefined for a larger count; the kernel sets it by the
// same rule and counts it as defined only for a count of 1.
func intRol(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	n, w := shiftCount(b, sz), uint64(sz)*8
	if n == 0 {
		return a, 0, false
	}
	v, c := trunc(a, sz), n%w
	res := trunc(v<<c|v>>(w-c), sz)
	f.CF = res&1 != 0
	f.OF = signBit(res, sz) != f.CF
	return res, rotated(n), true
}

func intRor(a, b uint64, sz uint8, f *Flags) (uint64, x86.FlagSet, bool) {
	n, w := shiftCount(b, sz), uint64(sz)*8
	if n == 0 {
		return a, 0, false
	}
	v, c := trunc(a, sz), n%w
	res := trunc(v>>c|v<<(w-c), sz)
	f.CF = signBit(res, sz)
	f.OF = f.CF != (res>>(w-2)&1 != 0)
	return res, rotated(n), true
}

// rotated is the set of flags a rotate by the masked count n defines.
func rotated(n uint64) x86.FlagSet {
	if n == 1 {
		return x86.FlagCF | x86.FlagOF
	}
	return x86.FlagCF
}

// shiftCount masks a shift or rotate count as the hardware does.
func shiftCount(b uint64, sz uint8) uint64 {
	if sz == 8 {
		return b & 63
	}
	return b & 31
}

// shifted sets the flags of a shift of v by n to res: CF is the last bit
// shifted out, ZF, SF and PF follow the result, OF is defined for a count
// of 1 and kept otherwise, as is AF.
func shifted(v, res, n uint64, sz uint8, cf bool, f *Flags) (uint64, x86.FlagSet, bool) {
	f.CF, f.PF, f.ZF, f.SF = cf, parity(res), res == 0, signBit(res, sz)
	if n != 1 {
		return res, x86.FlagCF | x86.FlagPF | x86.FlagZF | x86.FlagSF, true
	}
	f.OF = signBit(res, sz) != signBit(v, sz)
	return res, x86.FlagCF | x86.FlagPF | x86.FlagZF | x86.FlagSF | x86.FlagOF, true
}

func carry(f *Flags) uint64 {
	if f.CF {
		return 1
	}
	return 0
}

// logic sets the flags of a logic op's result at width sz and returns it.
func logic(res uint64, sz uint8, f *Flags) uint64 {
	res = trunc(res, sz)
	*f = Flags{PF: parity(res), ZF: res == 0, SF: signBit(res, sz)}
	return res
}

// addCarry returns a + b + c at width sz, c being 0 or 1, and sets its
// flags.
func addCarry(a, b, c uint64, sz uint8, f *Flags) uint64 {
	a, b = trunc(a, sz), trunc(b, sz)
	res := trunc(a+b+c, sz)
	*f = Flags{
		CF: res < a || c != 0 && res == a,
		PF: parity(res),
		AF: a&0xF+b&0xF+c > 0xF,
		ZF: res == 0,
		SF: signBit(res, sz),
		OF: signBit(a, sz) == signBit(b, sz) && signBit(res, sz) != signBit(a, sz),
	}
	return res
}

// subBorrow returns a - b - c at width sz, c being 0 or 1, and sets its
// flags.
func subBorrow(a, b, c uint64, sz uint8, f *Flags) uint64 {
	a, b = trunc(a, sz), trunc(b, sz)
	res := trunc(a-b-c, sz)
	*f = Flags{
		CF: a < b || c != 0 && a == b,
		PF: parity(res),
		AF: a&0xF < b&0xF+c,
		ZF: res == 0,
		SF: signBit(res, sz),
		OF: signBit(a, sz) != signBit(b, sz) && signBit(res, sz) != signBit(a, sz),
	}
	return res
}

// FlagsOfSub returns the flag state after a - b (also cmp) at the given
// width.
func FlagsOfSub(a, b uint64, size uint8) Flags {
	var f Flags
	subBorrow(a, b, 0, size, &f)
	return f
}

// Set returns the flags that are on in f.
func (f Flags) Set() x86.FlagSet {
	var s x86.FlagSet
	for i, on := range [...]bool{f.CF, f.PF, f.AF, f.ZF, f.SF, f.OF} {
		if on {
			s |= 1 << i
		}
	}
	return s
}

// FlagState returns the flag state in which exactly the flags in s are on.
func FlagState(s x86.FlagSet) Flags {
	return Flags{CF: s&x86.FlagCF != 0, PF: s&x86.FlagPF != 0, AF: s&x86.FlagAF != 0,
		ZF: s&x86.FlagZF != 0, SF: s&x86.FlagSF != 0, OF: s&x86.FlagOF != 0}
}

// CondHoldsIn evaluates an x86 condition against a flag state.
func CondHoldsIn(f Flags, c x86.Cond) bool {
	var v bool
	switch c &^ 1 {
	case x86.CondO:
		v = f.OF
	case x86.CondB:
		v = f.CF
	case x86.CondE:
		v = f.ZF
	case x86.CondBE:
		v = f.CF || f.ZF
	case x86.CondS:
		v = f.SF
	case x86.CondP:
		v = f.PF
	case x86.CondL:
		v = f.SF != f.OF
	case x86.CondLE:
		v = f.ZF || (f.SF != f.OF)
	}
	if c&1 != 0 {
		return !v
	}
	return v
}

func trunc(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return v & 0xFF
	case 2:
		return v & 0xFFFF
	case 4:
		return v & 0xFFFFFFFF
	}
	return v
}

func signBit(v uint64, size uint8) bool {
	return v>>(uint(size)*8-1)&1 != 0
}

func signExtend(v uint64, size uint8) int64 {
	switch size {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	}
	return int64(v)
}

func parity(v uint64) bool { return bits.OnesCount8(uint8(v))%2 == 0 }
