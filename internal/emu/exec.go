package emu

import (
	"fmt"
	"math/bits"

	"repro/internal/x86"
)

// exec dispatches one decoded instruction. RIP has already been advanced to
// the next sequential instruction.
func (m *Machine) exec(in *x86.Inst) error {
	switch in.Op {
	case x86.NOP, x86.ENDBR64:
		return nil
	case x86.STC:
		m.Flags.CF = true
		return nil
	case x86.CLC:
		m.Flags.CF = false
		return nil
	case x86.UD2:
		return fmt.Errorf("ud2 executed")

	case x86.MOV:
		v, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		return m.writeOp(in, in.Dst, v)
	case x86.LEA:
		m.gpWrite(in.Dst.Reg, in.Dst.Size, trunc(m.ea(in, in.Src), in.Dst.Size))
		return nil

	case x86.MUL:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		switch in.Dst.Size {
		case 8:
			hi, lo := bits.Mul64(m.GPR[x86.RAX], v)
			m.GPR[x86.RAX], m.GPR[x86.RDX] = lo, hi
			m.Flags.CF = hi != 0
			m.Flags.OF = m.Flags.CF
		case 4:
			p := (m.GPR[x86.RAX] & 0xFFFFFFFF) * trunc(v, 4)
			m.gpWrite(x86.RAX, 4, p&0xFFFFFFFF)
			m.gpWrite(x86.RDX, 4, p>>32)
			m.Flags.CF = p>>32 != 0
			m.Flags.OF = m.Flags.CF
		default:
			return fmt.Errorf("mul size %d unsupported", in.Dst.Size)
		}
		return nil
	case x86.IDIV:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		switch in.Dst.Size {
		case 8:
			den := int64(v)
			if den == 0 {
				return fmt.Errorf("integer divide by zero")
			}
			num := int64(m.GPR[x86.RAX]) // RDX:RAX; we support the CQO-extended case
			q, r := num/den, num%den
			m.GPR[x86.RAX], m.GPR[x86.RDX] = uint64(q), uint64(r)
		case 4:
			den := int64(int32(v))
			if den == 0 {
				return fmt.Errorf("integer divide by zero")
			}
			num := int64(int32(m.GPR[x86.RAX]))
			q, r := num/den, num%den
			m.gpWrite(x86.RAX, 4, uint64(uint32(int32(q))))
			m.gpWrite(x86.RDX, 4, uint64(uint32(int32(r))))
		default:
			return fmt.Errorf("idiv size %d unsupported", in.Dst.Size)
		}
		return nil
	case x86.DIV:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("integer divide by zero")
		}
		switch in.Dst.Size {
		case 8:
			q, r := bits.Div64(m.GPR[x86.RDX], m.GPR[x86.RAX], v)
			m.GPR[x86.RAX], m.GPR[x86.RDX] = q, r
		case 4:
			num := m.GPR[x86.RDX]&0xFFFFFFFF<<32 | m.GPR[x86.RAX]&0xFFFFFFFF
			m.gpWrite(x86.RAX, 4, num/trunc(v, 4))
			m.gpWrite(x86.RDX, 4, num%trunc(v, 4))
		default:
			return fmt.Errorf("div size %d unsupported", in.Dst.Size)
		}
		return nil
	case x86.PUSH:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		if in.Dst.Kind == x86.KImm {
			v = uint64(in.Dst.Imm)
		}
		return m.push(v)
	case x86.POP:
		v, err := m.pop()
		if err != nil {
			return err
		}
		return m.writeOp(in, in.Dst, v)

	case x86.CALL, x86.CALLIndirect:
		var target uint64
		if in.Op == x86.CALL {
			target = uint64(in.Dst.Imm)
		} else {
			v, err := m.readOp(in, in.Dst)
			if err != nil {
				return err
			}
			target = v
		}
		if m.CallHook != nil {
			handled, err := m.CallHook(m, target)
			if err != nil {
				return err
			}
			if handled {
				return nil
			}
		}
		if err := m.push(m.RIP); err != nil {
			return err
		}
		m.RIP = target
		return nil
	case x86.RET:
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.RIP = v
		return nil
	case x86.JMP:
		m.RIP = uint64(in.Dst.Imm)
		return nil
	case x86.JMPIndirect:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		m.RIP = v
		return nil
	case x86.JCC:
		if m.CondHolds(in.Cond) {
			m.RIP = uint64(in.Dst.Imm)
		}
		return nil
	case x86.CMOVCC:
		if m.CondHolds(in.Cond) {
			v, err := m.readOp(in, in.Src)
			if err != nil {
				return err
			}
			return m.writeOp(in, in.Dst, v)
		}
		// A 32-bit cmov still zeroes the upper half even when not taken.
		if in.Dst.Size == 4 && in.Dst.Kind == x86.KReg {
			m.gpWrite(in.Dst.Reg, 4, m.gpRead(in.Dst.Reg, 4))
		}
		return nil
	case x86.SETCC:
		v := uint64(0)
		if m.CondHolds(in.Cond) {
			v = 1
		}
		return m.writeOp(in, in.Dst, v)

	case x86.XCHG:
		a, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		if err := m.writeOp(in, in.Dst, b); err != nil {
			return err
		}
		return m.writeOp(in, in.Src, a)

	// Byte string operations. The machine models DF as always clear
	// (forward), matching the SysV ABI's guarantee at function entry; a rep
	// block retires as a single instruction with its count folded in.
	case x86.MOVSB:
		v, err := m.memLoad(m.GPR[x86.RSI], 1)
		if err != nil {
			return err
		}
		if err := m.memStore(m.GPR[x86.RDI], 1, v); err != nil {
			return err
		}
		m.GPR[x86.RSI]++
		m.GPR[x86.RDI]++
		return nil
	case x86.STOSB:
		if err := m.memStore(m.GPR[x86.RDI], 1, m.GPR[x86.RAX]&0xFF); err != nil {
			return err
		}
		m.GPR[x86.RDI]++
		return nil
	case x86.REPMOVSB:
		for m.GPR[x86.RCX] != 0 {
			v, err := m.memLoad(m.GPR[x86.RSI], 1)
			if err != nil {
				return err
			}
			if err := m.memStore(m.GPR[x86.RDI], 1, v); err != nil {
				return err
			}
			m.GPR[x86.RSI]++
			m.GPR[x86.RDI]++
			m.GPR[x86.RCX]--
		}
		return nil
	case x86.REPSTOSB:
		al := m.GPR[x86.RAX] & 0xFF
		for m.GPR[x86.RCX] != 0 {
			if err := m.memStore(m.GPR[x86.RDI], 1, al); err != nil {
				return err
			}
			m.GPR[x86.RDI]++
			m.GPR[x86.RCX]--
		}
		return nil
	}

	if fn, a, b, out := intOp(in); fn != nil {
		return m.execInt(in, fn, a, b, out)
	}
	return m.execSSE(in)
}

// execInt runs an instruction of the integer kernel: it reads the kernel's
// operands in order, then sets the flags and writes the result.
func (m *Machine) execInt(in *x86.Inst, fn intFn, a, b, out *x86.Operand) error {
	av, err := m.readOp(in, *a)
	if err != nil {
		return err
	}
	var bv uint64
	if b != nil {
		if bv, err = m.readOp(in, *b); err != nil {
			return err
		}
	}
	if res, _, write := fn(av, bv, a.Size, &m.Flags); write {
		return m.writeOp(in, *out, res)
	}
	return nil
}
