package emu

import (
	"encoding/binary"
	"errors"

	"repro/internal/x86"
)

// Error values matching the interpreter's messages for degenerate operands.
var (
	errEmptyRead = errors.New("emu: read of empty operand")
	errBadWrite  = errors.New("emu: write to bad operand")
	errBadSSE    = errors.New("emu: bad SSE operand")
)

// bindExec returns the pre-bound executor for one decoded instruction.
// Specialized bindings resolve operand kinds, widths, register facets, and
// condition codes at translate time. Integer arithmetic and its flags come
// from the integer kernel (alu.go), the same definition the interpreter and
// DBrew's constant folder use, and every SSE instruction comes from the SSE
// kernel (sse.go), the same definition the interpreter uses. The remaining
// ops (MUL/DIV/IDIV, XCHG, UD2 and the byte string ops) fall back to a
// closure over the interpreter's exec, so the interpreter and the block
// engine cannot diverge.
func bindExec(in *x86.Inst) execFn {
	if fn, a, b, out := intOp(in); fn != nil {
		return bindInt(in, fn, a, b, out)
	}
	if k := sseOp(in); k != nil {
		return bindSSE(in, k)
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
	}

	// Everything else (MUL/DIV/IDIV, XCHG, UD2, the byte string ops)
	// executes through the interpreter.
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

type readXMMFn func(*Machine) (XMMReg, error)

// bindSSE binds an instruction of the SSE kernel: the source read, the
// destination's value and the write-back are resolved at translate time,
// and the opcode's kernel function, chosen once here, computes the result.
// A memory operand's site keeps the region it last hit, as bindMemLoad's do.
func bindSSE(in *x86.Inst, k *sseKernel) execFn {
	fn, imm := k.fn, uint8(in.Src2.Imm)
	if in.Dst.Kind == x86.KMem {
		// The source of every SSE store is an XMM register.
		si, ea, size, aligned := in.Src.Reg-x86.XMM0, bindEA(in, in.Dst), k.width, k.mem == sseAligned
		var cache *Region
		return func(m *Machine) error {
			v := fn(XMMReg{}, m.XMM[si], imm, &m.Flags)
			addr := ea(m)
			if aligned && addr%16 != 0 {
				return misaligned(addr, true)
			}
			m.accountMem(addr, size, true)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+uint64(size) > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, size); r == nil {
					return &Fault{Addr: addr, Size: size, Op: "write"}
				}
				cache = r
			}
			if r.watch.Load() {
				m.Mem.codeGen.Add(1)
			}
			b := r.Data[addr-r.Start:]
			switch size {
			case 4:
				binary.LittleEndian.PutUint32(b, uint32(v.Lo))
			case 16:
				binary.LittleEndian.PutUint64(b[8:], v.Hi)
				fallthrough
			default:
				binary.LittleEndian.PutUint64(b, v.Lo)
			}
			return nil
		}
	}
	src := bindSSESrc(in, k)
	if !in.Dst.Reg.IsXMM() {
		w := bindWrite(in, in.Dst)
		return func(m *Machine) error {
			s, err := src(m)
			if err != nil {
				return err
			}
			return w(m, fn(XMMReg{}, s, imm, &m.Flags).Lo)
		}
	}
	di, keep := in.Dst.Reg-x86.XMM0, !(k.mem == sseZeroing && in.Src.Kind == x86.KMem)
	return func(m *Machine) error {
		s, err := src(m)
		if err != nil {
			return err
		}
		var d XMMReg
		if keep {
			d = m.XMM[di]
		}
		m.XMM[di] = fn(d, s, imm, &m.Flags)
		return nil
	}
}

// bindSSESrc binds the read of an SSE source operand, as the interpreter's
// readXMM reads it: a whole XMM register, a GP register facet, or a memory
// load of the kernel's width with accounting (and, for movap*/movdqa, the
// alignment check first).
func bindSSESrc(in *x86.Inst, k *sseKernel) readXMMFn {
	o := in.Src
	switch {
	case o.Kind == x86.KReg && o.Reg.IsXMM():
		si := o.Reg - x86.XMM0
		return func(m *Machine) (XMMReg, error) { return m.XMM[si], nil }
	case o.Kind == x86.KReg:
		r := bindRead(in, o)
		return func(m *Machine) (XMMReg, error) {
			v, err := r(m)
			return XMMReg{Lo: v}, err
		}
	case o.Kind != x86.KMem:
		return func(*Machine) (XMMReg, error) { return XMMReg{}, errBadSSE }
	}
	ea, size, aligned := bindEA(in, o), k.width, k.mem == sseAligned
	var cache *Region
	return func(m *Machine) (XMMReg, error) {
		addr := ea(m)
		if aligned && addr%16 != 0 {
			return XMMReg{}, misaligned(addr, false)
		}
		m.accountMem(addr, size, false)
		r := cache
		if r == nil || addr < r.Start || addr-r.Start+uint64(size) > uint64(len(r.Data)) {
			if r = m.Mem.find(addr, size); r == nil {
				return XMMReg{}, &Fault{Addr: addr, Size: size, Op: "access"}
			}
			cache = r
		}
		b := r.Data[addr-r.Start:]
		switch size {
		case 4:
			return XMMReg{Lo: uint64(binary.LittleEndian.Uint32(b))}, nil
		case 8:
			return XMMReg{Lo: binary.LittleEndian.Uint64(b)}, nil
		}
		return XMMReg{Lo: binary.LittleEndian.Uint64(b), Hi: binary.LittleEndian.Uint64(b[8:])}, nil
	}
}
