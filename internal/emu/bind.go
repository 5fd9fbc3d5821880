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
// condition codes at translate time. Integer arithmetic and its flags come
// from the integer kernel (alu.go), the same definition the interpreter and
// DBrew's constant folder use; every remaining op falls back to a closure
// over the interpreter's exec (MUL/DIV and the exotic SSE shuffles among
// them), so the interpreter and the block engine cannot diverge.
func bindExec(in *x86.Inst) execFn {
	if fn, a, b, out := intOp(in); fn != nil {
		return bindInt(in, fn, a, b, out)
	}
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
	case x86.LEA:
		ea := bindEA(in, in.Src)
		if in.Dst.Kind == x86.KReg && in.Dst.Size == 8 && !in.Dst.Reg.IsHighByte() {
			d := in.Dst.Reg
			return func(m *Machine) error { m.GPR[d] = ea(m); return nil }
		}
		w, sz := bindWrite(in, in.Dst), in.Dst.Size
		return func(m *Machine) error { return w(m, trunc(ea(m), sz)) }

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

	// Everything else (MUL/DIV/IDIV, XCHG, shuffles/unpacks, conversions,
	// ...) executes through the interpreter.
	return func(m *Machine) error { return m.exec(in) }
}

// bindInt binds an instruction of the integer kernel: operand reads and the
// write-back are resolved at translate time, and the opcode's kernel
// function, chosen once here, computes the result and the flags. The
// dominant shape, a 64-bit register updated in place from a register, an
// immediate or nothing, reads and writes the register file directly.
func bindInt(in *x86.Inst, fn intFn, a, b, out *x86.Operand) execFn {
	if a.Kind == x86.KReg && a.Size == 8 && out.Kind == x86.KReg && out.Reg == a.Reg {
		d := a.Reg
		switch {
		case b == nil || b.Kind == x86.KImm:
			var c uint64
			if b != nil {
				c = uint64(b.Imm)
			}
			return func(m *Machine) error {
				if res, _, write := fn(m.GPR[d], c, 8, &m.Flags); write {
					m.GPR[d] = res
				}
				return nil
			}
		case b.Kind == x86.KReg && b.Size == 8:
			s := b.Reg
			return func(m *Machine) error {
				if res, _, write := fn(m.GPR[d], m.GPR[s], 8, &m.Flags); write {
					m.GPR[d] = res
				}
				return nil
			}
		}
	}
	ra, w, sz := bindRead(in, *a), bindWrite(in, *out), a.Size
	rb := func(*Machine) (uint64, error) { return 0, nil }
	if b != nil {
		rb = bindRead(in, *b)
	}
	return func(m *Machine) error {
		av, err := ra(m)
		if err != nil {
			return err
		}
		bv, err := rb(m)
		if err != nil {
			return err
		}
		if res, _, write := fn(av, bv, sz, &m.Flags); write {
			return w(m, res)
		}
		return nil
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
