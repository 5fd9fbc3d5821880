package emu

import (
	"errors"
	"fmt"

	"repro/internal/x86"
)

// Error values matching the interpreter's messages for degenerate operands.
var (
	errEmptyRead = errors.New("emu: read of empty operand")
	errBadWrite  = errors.New("emu: write to bad operand")
)

// bindExec returns the pre-bound executor for one decoded instruction.
// Specialized bindings resolve operand kinds, widths, register facets, and
// condition codes at translate time; every remaining op falls back to a
// closure over the interpreter's exec, so semantics can never diverge —
// ADC's carry-chain quirk, the rotate family, MUL/DIV, and the exotic SSE
// shuffles all run the exact interpreter code path.
func bindExec(in *x86.Inst) execFn {
	switch in.Op {
	case x86.NOP, x86.ENDBR64:
		return func(*Machine) error { return nil }
	case x86.STC:
		return func(m *Machine) error { m.Flags.CF = true; return nil }
	case x86.CLC:
		return func(m *Machine) error { m.Flags.CF = false; return nil }

	case x86.MOV:
		if in.Dst.Kind == x86.KReg && in.Dst.Size == 8 && !in.Dst.Reg.IsHighByte() {
			d := in.Dst.Reg
			if in.Src.Kind == x86.KReg && in.Src.Size == 8 && !in.Src.Reg.IsHighByte() {
				s := in.Src.Reg
				return func(m *Machine) error { m.GPR[d] = m.GPR[s]; return nil }
			}
			if in.Src.Kind == x86.KImm {
				c := uint64(in.Src.Imm)
				return func(m *Machine) error { m.GPR[d] = c; return nil }
			}
		}
		r, w := bindRead(in, in.Src), bindWrite(in, in.Dst)
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			return w(m, v)
		}
	case x86.MOVZX:
		r, w, sz := bindRead(in, in.Src), bindWrite(in, in.Dst), in.Src.Size
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			return w(m, trunc(v, sz))
		}
	case x86.MOVSX, x86.MOVSXD:
		r, w, sz := bindRead(in, in.Src), bindWrite(in, in.Dst), in.Src.Size
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			return w(m, uint64(signExtend(v, sz)))
		}
	case x86.LEA:
		ea := bindEA(in, in.Src)
		if in.Dst.Kind == x86.KReg && in.Dst.Size == 8 && !in.Dst.Reg.IsHighByte() {
			d := in.Dst.Reg
			return func(m *Machine) error { m.GPR[d] = ea(m); return nil }
		}
		w, sz := bindWrite(in, in.Dst), in.Dst.Size
		return func(m *Machine) error { return w(m, trunc(ea(m), sz)) }

	case x86.ADD:
		return bindBinALU(in, aluAdd)
	case x86.SUB:
		return bindBinALU(in, aluSub)
	case x86.CMP:
		return bindBinALU(in, aluCmp)
	case x86.AND:
		return bindBinALU(in, aluAnd)
	case x86.OR:
		return bindBinALU(in, aluOr)
	case x86.XOR:
		return bindBinALU(in, aluXor)
	case x86.TEST:
		return bindBinALU(in, aluTest)

	case x86.NOT:
		r, w, sz := bindRead(in, in.Dst), bindWrite(in, in.Dst), in.Dst.Size
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			return w(m, trunc(^v, sz))
		}
	case x86.NEG:
		r, w, sz := bindRead(in, in.Dst), bindWrite(in, in.Dst), in.Dst.Size
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			res := -v
			m.Flags = FlagsOfSub(0, v, sz)
			m.Flags.CF = trunc(v, sz) != 0
			return w(m, trunc(res, sz))
		}
	case x86.INC:
		r, w, sz := bindRead(in, in.Dst), bindWrite(in, in.Dst), in.Dst.Size
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			cf := m.Flags.CF
			res := v + 1
			m.Flags = FlagsOfAdd(v, 1, sz)
			m.Flags.CF = cf // INC preserves CF
			return w(m, trunc(res, sz))
		}
	case x86.DEC:
		r, w, sz := bindRead(in, in.Dst), bindWrite(in, in.Dst), in.Dst.Size
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			cf := m.Flags.CF
			res := v - 1
			m.Flags = FlagsOfSub(v, 1, sz)
			m.Flags.CF = cf // DEC preserves CF
			return w(m, trunc(res, sz))
		}

	case x86.IMUL:
		ra, rb := bindRead(in, in.Dst), bindRead(in, in.Src)
		w, dsz, ssz := bindWrite(in, in.Dst), in.Dst.Size, in.Src.Size
		return func(m *Machine) error {
			av, err := ra(m)
			if err != nil {
				return err
			}
			bv, err := rb(m)
			if err != nil {
				return err
			}
			full := signExtend(av, dsz) * signExtend(bv, ssz)
			m.Flags.CF = signExtend(uint64(full), dsz) != full
			m.Flags.OF = m.Flags.CF
			m.setResultFlags(uint64(full), dsz)
			return w(m, trunc(uint64(full), dsz))
		}
	case x86.IMUL3:
		r := bindRead(in, in.Src)
		w, dsz, ssz, imm := bindWrite(in, in.Dst), in.Dst.Size, in.Src.Size, in.Src2.Imm
		return func(m *Machine) error {
			av, err := r(m)
			if err != nil {
				return err
			}
			full := signExtend(av, ssz) * imm
			m.Flags.CF = signExtend(uint64(full), dsz) != full
			m.Flags.OF = m.Flags.CF
			m.setResultFlags(uint64(full), dsz)
			return w(m, trunc(uint64(full), dsz))
		}

	case x86.CQO:
		return func(m *Machine) error {
			m.GPR[x86.RDX] = uint64(int64(m.GPR[x86.RAX]) >> 63)
			return nil
		}
	case x86.CDQ:
		return func(m *Machine) error {
			m.gpWrite(x86.RDX, 4, uint64(uint32(int32(m.GPR[x86.RAX])>>31)))
			return nil
		}
	case x86.CDQE:
		return func(m *Machine) error {
			m.GPR[x86.RAX] = uint64(int64(int32(m.GPR[x86.RAX])))
			return nil
		}

	case x86.SHL, x86.SHR, x86.SAR:
		return bindShift(in)

	case x86.PUSH:
		r := bindRead(in, in.Dst)
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			return m.push(v)
		}
	case x86.POP:
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			v, err := m.pop()
			if err != nil {
				return err
			}
			return w(m, v)
		}

	case x86.CALL:
		target := uint64(in.Dst.Imm)
		ret := in.Addr + uint64(in.Len)
		return func(m *Machine) error {
			if m.CallHook != nil {
				handled, err := m.CallHook(m, target)
				if err != nil {
					return err
				}
				if handled {
					m.RIP = ret
					return nil
				}
			}
			if err := m.push(ret); err != nil {
				return err
			}
			m.RIP = target
			return nil
		}
	case x86.CALLIndirect:
		r := bindRead(in, in.Dst)
		ret := in.Addr + uint64(in.Len)
		return func(m *Machine) error {
			target, err := r(m)
			if err != nil {
				return err
			}
			if m.CallHook != nil {
				handled, err := m.CallHook(m, target)
				if err != nil {
					return err
				}
				if handled {
					m.RIP = ret
					return nil
				}
			}
			if err := m.push(ret); err != nil {
				return err
			}
			m.RIP = target
			return nil
		}
	case x86.RET:
		return func(m *Machine) error {
			v, err := m.pop()
			if err != nil {
				return err
			}
			m.RIP = v
			return nil
		}
	case x86.JMP:
		target := uint64(in.Dst.Imm)
		return func(m *Machine) error { m.RIP = target; return nil }
	case x86.JMPIndirect:
		r := bindRead(in, in.Dst)
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			m.RIP = v
			return nil
		}
	case x86.JCC:
		target, taken := uint64(in.Dst.Imm), bindCond(in.Cond)
		fallthru := in.Addr + uint64(in.Len)
		return func(m *Machine) error {
			if taken(m.Flags) {
				m.RIP = target
			} else {
				m.RIP = fallthru
			}
			return nil
		}
	case x86.CMOVCC:
		r, w, taken := bindRead(in, in.Src), bindWrite(in, in.Dst), bindCond(in.Cond)
		zero32 := in.Dst.Size == 4 && in.Dst.Kind == x86.KReg
		dreg := in.Dst.Reg
		return func(m *Machine) error {
			if taken(m.Flags) {
				v, err := r(m)
				if err != nil {
					return err
				}
				return w(m, v)
			}
			// A 32-bit cmov still zeroes the upper half even when not taken.
			if zero32 {
				m.gpWrite(dreg, 4, m.gpRead(dreg, 4))
			}
			return nil
		}
	case x86.SETCC:
		w, taken := bindWrite(in, in.Dst), bindCond(in.Cond)
		return func(m *Machine) error {
			v := uint64(0)
			if taken(m.Flags) {
				v = 1
			}
			return w(m, v)
		}

	// --- SSE ---

	case x86.MOVSD_X:
		return bindMovScalar(in, 8)
	case x86.MOVSS_X:
		return bindMovScalar(in, 4)
	case x86.MOVAPS, x86.MOVAPD, x86.MOVDQA:
		return bindMov128(in, true)
	case x86.MOVUPS, x86.MOVUPD, x86.MOVDQU:
		return bindMov128(in, false)
	case x86.MOVQ:
		return bindMovQ(in)

	case x86.ADDSD:
		return bindScalarF64(in, AddF64)
	case x86.SUBSD:
		return bindScalarF64(in, SubF64)
	case x86.MULSD:
		return bindScalarF64(in, MulF64)
	case x86.DIVSD:
		return bindScalarF64(in, DivF64)
	case x86.MINSD:
		return bindScalarF64(in, func(a, b float64) float64 {
			if b < a {
				return b
			}
			return a
		})
	case x86.MAXSD:
		return bindScalarF64(in, func(a, b float64) float64 {
			if b > a {
				return b
			}
			return a
		})
	case x86.ADDSS:
		return bindScalarF32(in, func(a, b float32) float32 { return a + b })
	case x86.SUBSS:
		return bindScalarF32(in, func(a, b float32) float32 { return a - b })
	case x86.MULSS:
		return bindScalarF32(in, func(a, b float32) float32 { return a * b })
	case x86.DIVSS:
		return bindScalarF32(in, func(a, b float32) float32 { return a / b })

	case x86.ADDPD:
		return bindPackedF64(in, AddF64)
	case x86.SUBPD:
		return bindPackedF64(in, SubF64)
	case x86.MULPD:
		return bindPackedF64(in, MulF64)
	case x86.DIVPD:
		return bindPackedF64(in, DivF64)

	case x86.XORPS, x86.XORPD, x86.PXOR:
		return bindBitwise(in, func(a, b uint64) uint64 { return a ^ b })
	case x86.ANDPS, x86.ANDPD, x86.PAND:
		return bindBitwise(in, func(a, b uint64) uint64 { return a & b })
	case x86.ORPS, x86.ORPD, x86.POR:
		return bindBitwise(in, func(a, b uint64) uint64 { return a | b })
	case x86.PADDQ:
		return bindBitwise(in, func(a, b uint64) uint64 { return a + b })
	case x86.PSUBQ:
		return bindBitwise(in, func(a, b uint64) uint64 { return a - b })

	case x86.CVTSI2SD:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			r, sz := bindRead(in, in.Src), in.Src.Size
			di := int(in.Dst.Reg - x86.XMM0)
			return func(m *Machine) error {
				v, err := r(m)
				if err != nil {
					return err
				}
				m.XMM[di].Lo = f64bits(float64(signExtend(v, sz)))
				return nil
			}
		}

	case x86.COMISD, x86.UCOMISD:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			src := bindReadXMMLo(in, in.Src, 8)
			di := int(in.Dst.Reg - x86.XMM0)
			return func(m *Machine) error {
				s, err := src(m)
				if err != nil {
					return err
				}
				m.comi(f64frombits(m.XMM[di].Lo), f64frombits(s))
				return nil
			}
		}
	}

	// Everything else (ADC/SBB, MUL/DIV/IDIV, rotates, XCHG, POPCNT,
	// shuffles/unpacks, conversions, ...) executes through the interpreter.
	return func(m *Machine) error { return m.exec(in) }
}

// bindALUFast fully specializes the dominant ALU shape — 64-bit register
// destination with a register or immediate source — into closures with no
// indirect operand reads. Flag computation goes through the same FlagsOf*
// helpers as the interpreter, so results are identical. Returns nil when the
// shape doesn't fit (memory operands, narrow widths, high-byte registers).
func bindALUFast(in *x86.Inst, kind aluKind) execFn {
	if in.Dst.Kind != x86.KReg || in.Dst.Size != 8 || in.Dst.Reg.IsHighByte() {
		return nil
	}
	d := in.Dst.Reg
	var src func(*Machine) uint64
	switch {
	case in.Src.Kind == x86.KReg && in.Src.Size == 8 && !in.Src.Reg.IsHighByte():
		s := in.Src.Reg
		src = func(m *Machine) uint64 { return m.GPR[s] }
	case in.Src.Kind == x86.KImm:
		c := uint64(in.Src.Imm)
		src = func(*Machine) uint64 { return c }
	default:
		return nil
	}
	switch kind {
	case aluAdd:
		return func(m *Machine) error {
			a, b := m.GPR[d], src(m)
			m.Flags = FlagsOfAdd(a, b, 8)
			m.GPR[d] = a + b
			return nil
		}
	case aluSub:
		return func(m *Machine) error {
			a, b := m.GPR[d], src(m)
			m.Flags = FlagsOfSub(a, b, 8)
			m.GPR[d] = a - b
			return nil
		}
	case aluCmp:
		return func(m *Machine) error {
			m.Flags = FlagsOfSub(m.GPR[d], src(m), 8)
			return nil
		}
	case aluAnd:
		return func(m *Machine) error {
			res := m.GPR[d] & src(m)
			m.Flags = FlagsOfLogic(res, 8)
			m.GPR[d] = res
			return nil
		}
	case aluOr:
		return func(m *Machine) error {
			res := m.GPR[d] | src(m)
			m.Flags = FlagsOfLogic(res, 8)
			m.GPR[d] = res
			return nil
		}
	case aluXor:
		return func(m *Machine) error {
			res := m.GPR[d] ^ src(m)
			m.Flags = FlagsOfLogic(res, 8)
			m.GPR[d] = res
			return nil
		}
	default: // aluTest
		return func(m *Machine) error {
			m.Flags = FlagsOfLogic(m.GPR[d]&src(m), 8)
			return nil
		}
	}
}

// aluKind selects the operation of a bound two-operand ALU instruction.
type aluKind uint8

const (
	aluAdd aluKind = iota
	aluSub
	aluCmp
	aluAnd
	aluOr
	aluXor
	aluTest
)

// bindBinALU binds ADD/SUB/CMP/AND/OR/XOR/TEST: read dst, read src, set
// flags, write back (except CMP/TEST). Flag computation and operand order
// mirror the interpreter exactly.
func bindBinALU(in *x86.Inst, kind aluKind) execFn {
	if fn := bindALUFast(in, kind); fn != nil {
		return fn
	}
	ra, rb := bindRead(in, in.Dst), bindRead(in, in.Src)
	sz := in.Dst.Size
	switch kind {
	case aluAdd:
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			res := a + b
			m.Flags = FlagsOfAdd(a, b, sz)
			return w(m, trunc(res, sz))
		}
	case aluSub:
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			res := a - b
			m.Flags = FlagsOfSub(a, b, sz)
			return w(m, trunc(res, sz))
		}
	case aluCmp:
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			m.Flags = FlagsOfSub(a, b, sz)
			return nil
		}
	case aluAnd:
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			res := a & b
			m.Flags = FlagsOfLogic(res, sz)
			return w(m, trunc(res, sz))
		}
	case aluOr:
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			res := a | b
			m.Flags = FlagsOfLogic(res, sz)
			return w(m, trunc(res, sz))
		}
	case aluXor:
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			res := a ^ b
			m.Flags = FlagsOfLogic(res, sz)
			return w(m, trunc(res, sz))
		}
	default: // aluTest
		return func(m *Machine) error {
			a, err := ra(m)
			if err != nil {
				return err
			}
			b, err := rb(m)
			if err != nil {
				return err
			}
			m.Flags = FlagsOfLogic(a&b, sz)
			return nil
		}
	}
}

// bindShift binds SHL/SHR/SAR. An immediate count is masked at translate
// time: count zero becomes a no-op (flags untouched, no write-back, exactly
// like the interpreter), and the common count==1/count>1 split disappears
// into the closure.
func bindShift(in *x86.Inst) execFn {
	op, sz := in.Op, in.Dst.Size
	width := uint64(sz) * 8
	mask := uint64(31)
	if width == 64 {
		mask = 63
	}
	r, w := bindRead(in, in.Dst), bindWrite(in, in.Dst)
	shiftOne := func(m *Machine, v, cnt uint64) error {
		v = trunc(v, sz)
		var res uint64
		switch op {
		case x86.SHL:
			res = v << cnt
			m.Flags.CF = cnt <= width && v>>(width-cnt)&1 != 0
		case x86.SHR:
			res = v >> cnt
			m.Flags.CF = v>>(cnt-1)&1 != 0
		case x86.SAR:
			res = uint64(signExtend(v, sz) >> cnt)
			m.Flags.CF = v>>(cnt-1)&1 != 0
		}
		m.setResultFlags(res, sz)
		if cnt == 1 {
			m.Flags.OF = signBit(res, sz) != signBit(v, sz)
		}
		return w(m, trunc(res, sz))
	}
	if in.Src.Kind == x86.KImm {
		cnt := uint64(in.Src.Imm) & mask
		if cnt == 0 {
			return func(*Machine) error { return nil } // flags unchanged
		}
		return func(m *Machine) error {
			v, err := r(m)
			if err != nil {
				return err
			}
			return shiftOne(m, v, cnt)
		}
	}
	rc := bindRead(in, in.Src)
	return func(m *Machine) error {
		v, err := r(m)
		if err != nil {
			return err
		}
		cnt, err := rc(m)
		if err != nil {
			return err
		}
		cnt &= mask
		if cnt == 0 {
			return nil // flags unchanged
		}
		return shiftOne(m, v, cnt)
	}
}

// ---------------------------------------------------------------------------
// SSE binding

// bindReadXMMLo binds the low-lane read of an SSE source operand: the low
// 64 bits of an XMM register, a GP register facet, or a memory load of the
// given width (with accounting, like the interpreter's readXMM).
func bindReadXMMLo(in *x86.Inst, o x86.Operand, size int) readFn {
	if o.Kind == x86.KReg {
		if o.Reg.IsXMM() {
			si := int(o.Reg - x86.XMM0)
			return func(m *Machine) (uint64, error) { return m.XMM[si].Lo, nil }
		}
		return bindRead(in, o)
	}
	return bindMemLoad(bindEA(in, o), size)
}

type readXMMFn func(*Machine) (XMMReg, error)

// bindReadXMM128 binds a full 16-byte SSE source read.
func bindReadXMM128(in *x86.Inst, o x86.Operand) readXMMFn {
	if o.Kind == x86.KReg {
		if o.Reg.IsXMM() {
			si := int(o.Reg - x86.XMM0)
			return func(m *Machine) (XMMReg, error) { return m.XMM[si], nil }
		}
		r := bindRead(in, o)
		return func(m *Machine) (XMMReg, error) {
			v, err := r(m)
			return XMMReg{Lo: v}, err
		}
	}
	ea := bindEA(in, o)
	return func(m *Machine) (XMMReg, error) {
		addr := ea(m)
		m.accountMem(addr, 16, false)
		lo, hi, err := m.memLoad128(addr)
		return XMMReg{Lo: lo, Hi: hi}, err
	}
}

// bindMovScalar binds MOVSD_X (size 8) / MOVSS_X (size 4).
func bindMovScalar(in *x86.Inst, size int) execFn {
	if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
		di := int(in.Dst.Reg - x86.XMM0)
		if in.Src.Kind == x86.KMem {
			load := bindMemLoad(bindEA(in, in.Src), size)
			return func(m *Machine) error {
				v, err := load(m)
				if err != nil {
					return err
				}
				m.XMM[di] = XMMReg{Lo: v} // load form zeroes the rest
				return nil
			}
		}
		if in.Src.Kind == x86.KReg && in.Src.Reg.IsXMM() {
			si := int(in.Src.Reg - x86.XMM0)
			if size == 8 {
				return func(m *Machine) error {
					m.XMM[di].Lo = m.XMM[si].Lo // register form preserves upper
					return nil
				}
			}
			return func(m *Machine) error {
				m.XMM[di].Lo = m.XMM[di].Lo&^uint64(0xFFFFFFFF) | m.XMM[si].Lo&0xFFFFFFFF
				return nil
			}
		}
		return func(m *Machine) error { return m.exec(in) }
	}
	if in.Dst.Kind == x86.KMem && in.Src.Kind == x86.KReg && in.Src.Reg.IsXMM() {
		store := bindMemStore(bindEA(in, in.Dst), size)
		si := int(in.Src.Reg - x86.XMM0)
		if size == 8 {
			return func(m *Machine) error {
				return store(m, m.XMM[si].Lo)
			}
		}
		return func(m *Machine) error {
			return store(m, m.XMM[si].Lo&0xFFFFFFFF)
		}
	}
	return func(m *Machine) error { return m.exec(in) }
}

// bindMov128 binds the 16-byte move family; aligned variants keep the
// interpreter's alignment fault text.
func bindMov128(in *x86.Inst, aligned bool) execFn {
	if in.Dst.Kind == x86.KMem && in.Src.Kind == x86.KReg && in.Src.Reg.IsXMM() {
		ea := bindEA(in, in.Dst)
		si := int(in.Src.Reg - x86.XMM0)
		return func(m *Machine) error {
			addr := ea(m)
			if aligned && addr%16 != 0 {
				return fmt.Errorf("aligned 16-byte store to unaligned address %#x", addr)
			}
			m.accountMem(addr, 16, true)
			s := m.XMM[si]
			return m.memStore128(addr, s.Lo, s.Hi)
		}
	}
	if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
		di := int(in.Dst.Reg - x86.XMM0)
		if in.Src.Kind == x86.KMem {
			ea := bindEA(in, in.Src)
			return func(m *Machine) error {
				addr := ea(m)
				if aligned && addr%16 != 0 {
					return fmt.Errorf("aligned 16-byte load from unaligned address %#x", addr)
				}
				m.accountMem(addr, 16, false)
				lo, hi, err := m.memLoad128(addr)
				if err != nil {
					return err
				}
				m.XMM[di] = XMMReg{Lo: lo, Hi: hi}
				return nil
			}
		}
		if in.Src.Kind == x86.KReg && in.Src.Reg.IsXMM() {
			si := int(in.Src.Reg - x86.XMM0)
			return func(m *Machine) error {
				m.XMM[di] = m.XMM[si]
				return nil
			}
		}
	}
	return func(m *Machine) error { return m.exec(in) }
}

// bindMovQ binds MOVQ (xmm<-xmm/m64 zero-extending, m64<-xmm).
func bindMovQ(in *x86.Inst) execFn {
	if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
		src := bindReadXMMLo(in, in.Src, 8)
		di := int(in.Dst.Reg - x86.XMM0)
		return func(m *Machine) error {
			v, err := src(m)
			if err != nil {
				return err
			}
			m.XMM[di] = XMMReg{Lo: v} // zeroes upper lane
			return nil
		}
	}
	if in.Dst.Kind == x86.KMem && in.Src.Kind == x86.KReg && in.Src.Reg.IsXMM() {
		ea := bindEA(in, in.Dst)
		si := int(in.Src.Reg - x86.XMM0)
		return func(m *Machine) error {
			addr := ea(m)
			m.accountMem(addr, 8, true)
			return m.memStore(addr, 8, m.XMM[si].Lo)
		}
	}
	return func(m *Machine) error { return m.exec(in) }
}

func bindScalarF64(in *x86.Inst, op func(a, b float64) float64) execFn {
	if in.Dst.Kind != x86.KReg || !in.Dst.Reg.IsXMM() {
		return func(m *Machine) error { return m.exec(in) }
	}
	src := bindReadXMMLo(in, in.Src, 8)
	di := int(in.Dst.Reg - x86.XMM0)
	return func(m *Machine) error {
		s, err := src(m)
		if err != nil {
			return err
		}
		d := &m.XMM[di]
		d.Lo = f64bits(op(f64frombits(d.Lo), f64frombits(s)))
		return nil
	}
}

func bindScalarF32(in *x86.Inst, op func(a, b float32) float32) execFn {
	if in.Dst.Kind != x86.KReg || !in.Dst.Reg.IsXMM() {
		return func(m *Machine) error { return m.exec(in) }
	}
	src := bindReadXMMLo(in, in.Src, 4)
	di := int(in.Dst.Reg - x86.XMM0)
	return func(m *Machine) error {
		s, err := src(m)
		if err != nil {
			return err
		}
		d := &m.XMM[di]
		d.Lo = d.Lo&^uint64(0xFFFFFFFF) | uint64(f32bits(op(f32frombits(uint32(d.Lo)), f32frombits(uint32(s)))))
		return nil
	}
}

func bindPackedF64(in *x86.Inst, op func(a, b float64) float64) execFn {
	if in.Dst.Kind != x86.KReg || !in.Dst.Reg.IsXMM() {
		return func(m *Machine) error { return m.exec(in) }
	}
	src := bindReadXMM128(in, in.Src)
	di := int(in.Dst.Reg - x86.XMM0)
	return func(m *Machine) error {
		s, err := src(m)
		if err != nil {
			return err
		}
		d := &m.XMM[di]
		d.Lo = f64bits(op(f64frombits(d.Lo), f64frombits(s.Lo)))
		d.Hi = f64bits(op(f64frombits(d.Hi), f64frombits(s.Hi)))
		return nil
	}
}

func bindBitwise(in *x86.Inst, op func(a, b uint64) uint64) execFn {
	if in.Dst.Kind != x86.KReg || !in.Dst.Reg.IsXMM() {
		return func(m *Machine) error { return m.exec(in) }
	}
	src := bindReadXMM128(in, in.Src)
	di := int(in.Dst.Reg - x86.XMM0)
	return func(m *Machine) error {
		s, err := src(m)
		if err != nil {
			return err
		}
		d := &m.XMM[di]
		d.Lo = op(d.Lo, s.Lo)
		d.Hi = op(d.Hi, s.Hi)
		return nil
	}
}
