package emu

import (
	"fmt"
	"math/bits"

	"repro/internal/x86"
)

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

func resultFlags(f *Flags, res uint64, size uint8) {
	res = trunc(res, size)
	f.ZF = res == 0
	f.SF = signBit(res, size)
	f.PF = parity(res)
}

// FlagsOfLogic returns the flag state after an and/or/xor/test of the given
// result width.
func FlagsOfLogic(res uint64, size uint8) Flags {
	var f Flags
	resultFlags(&f, res, size)
	return f
}

// FlagsOfAdd returns the flag state after a + b at the given width.
func FlagsOfAdd(a, b uint64, size uint8) Flags {
	res := a + b
	a, b, res = trunc(a, size), trunc(b, size), trunc(res, size)
	var f Flags
	resultFlags(&f, res, size)
	f.CF = res < a
	f.OF = signBit(a, size) == signBit(b, size) && signBit(res, size) != signBit(a, size)
	f.AF = (a&0xF)+(b&0xF) > 0xF
	return f
}

// FlagsOfSub returns the flag state after a - b (also cmp) at the given
// width.
func FlagsOfSub(a, b uint64, size uint8) Flags {
	res := a - b
	a, b, res = trunc(a, size), trunc(b, size), trunc(res, size)
	var f Flags
	resultFlags(&f, res, size)
	f.CF = a < b
	f.OF = signBit(a, size) != signBit(b, size) && signBit(res, size) != signBit(a, size)
	f.AF = a&0xF < b&0xF
	return f
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

func (m *Machine) setResultFlags(res uint64, size uint8) {
	resultFlags(&m.Flags, res, size)
}

func (m *Machine) setLogicFlags(res uint64, size uint8) {
	m.Flags = FlagsOfLogic(res, size)
}

func (m *Machine) setAddFlags(a, b, res uint64, size uint8) {
	cf, pf := m.Flags.CF, m.Flags.PF
	_ = cf
	_ = pf
	m.Flags = FlagsOfAdd(a, b, size)
	_ = res
}

func (m *Machine) setSubFlags(a, b, res uint64, size uint8) {
	m.Flags = FlagsOfSub(a, b, size)
	_ = res
}

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
	case x86.MOVZX:
		v, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		return m.writeOp(in, in.Dst, trunc(v, in.Src.Size))
	case x86.MOVSX, x86.MOVSXD:
		v, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		return m.writeOp(in, in.Dst, uint64(signExtend(v, in.Src.Size)))
	case x86.LEA:
		m.gpWrite(in.Dst.Reg, in.Dst.Size, trunc(m.ea(in, in.Src), in.Dst.Size))
		return nil

	case x86.ADD, x86.ADC:
		a, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		carry := uint64(0)
		if in.Op == x86.ADC && m.Flags.CF {
			carry = 1
		}
		res := a + b + carry
		m.setAddFlags(a, b+carry, res, in.Dst.Size)
		if in.Op == x86.ADC && carry == 1 && trunc(res, in.Dst.Size) == trunc(a, in.Dst.Size) {
			m.Flags.CF = b != 0 || carry != 0 // carry chain saturation
		}
		return m.writeOp(in, in.Dst, trunc(res, in.Dst.Size))
	case x86.SUB, x86.SBB, x86.CMP:
		a, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		borrow := uint64(0)
		if in.Op == x86.SBB && m.Flags.CF {
			borrow = 1
		}
		res := a - b - borrow
		m.setSubFlags(a, b+borrow, res, in.Dst.Size)
		if in.Op == x86.CMP {
			return nil
		}
		return m.writeOp(in, in.Dst, trunc(res, in.Dst.Size))
	case x86.AND, x86.OR, x86.XOR, x86.TEST:
		a, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		b, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		var res uint64
		switch in.Op {
		case x86.AND, x86.TEST:
			res = a & b
		case x86.OR:
			res = a | b
		case x86.XOR:
			res = a ^ b
		}
		m.setLogicFlags(res, in.Dst.Size)
		if in.Op == x86.TEST {
			return nil
		}
		return m.writeOp(in, in.Dst, trunc(res, in.Dst.Size))

	case x86.NOT:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		return m.writeOp(in, in.Dst, trunc(^v, in.Dst.Size))
	case x86.NEG:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		res := -v
		m.setSubFlags(0, v, res, in.Dst.Size)
		m.Flags.CF = trunc(v, in.Dst.Size) != 0
		return m.writeOp(in, in.Dst, trunc(res, in.Dst.Size))
	case x86.INC, x86.DEC:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		cf := m.Flags.CF
		var res uint64
		if in.Op == x86.INC {
			res = v + 1
			m.setAddFlags(v, 1, res, in.Dst.Size)
		} else {
			res = v - 1
			m.setSubFlags(v, 1, res, in.Dst.Size)
		}
		m.Flags.CF = cf // INC/DEC preserve CF
		return m.writeOp(in, in.Dst, trunc(res, in.Dst.Size))

	case x86.IMUL, x86.IMUL3:
		var a, b int64
		if in.Op == x86.IMUL {
			av, err := m.readOp(in, in.Dst)
			if err != nil {
				return err
			}
			bv, err := m.readOp(in, in.Src)
			if err != nil {
				return err
			}
			a, b = signExtend(av, in.Dst.Size), signExtend(bv, in.Src.Size)
		} else {
			av, err := m.readOp(in, in.Src)
			if err != nil {
				return err
			}
			a, b = signExtend(av, in.Src.Size), in.Src2.Imm
		}
		full := a * b
		m.Flags.CF = signExtend(uint64(full), in.Dst.Size) != full
		m.Flags.OF = m.Flags.CF
		m.setResultFlags(uint64(full), in.Dst.Size)
		return m.writeOp(in, in.Dst, trunc(uint64(full), in.Dst.Size))
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
	case x86.POPCNT:
		v, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		res := uint64(bits.OnesCount64(trunc(v, in.Src.Size)))
		m.setLogicFlags(res, in.Dst.Size)
		m.Flags.ZF = trunc(v, in.Src.Size) == 0
		return m.writeOp(in, in.Dst, res)

	case x86.CQO:
		m.GPR[x86.RDX] = uint64(int64(m.GPR[x86.RAX]) >> 63)
		return nil
	case x86.CDQ:
		m.gpWrite(x86.RDX, 4, uint64(uint32(int32(m.GPR[x86.RAX])>>31)))
		return nil
	case x86.CDQE:
		m.GPR[x86.RAX] = uint64(int64(int32(m.GPR[x86.RAX])))
		return nil

	case x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		v, err := m.readOp(in, in.Dst)
		if err != nil {
			return err
		}
		cnt, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		width := uint(in.Dst.Size) * 8
		if width == 64 {
			cnt &= 63
		} else {
			cnt &= 31
		}
		if cnt == 0 {
			return nil // flags unchanged
		}
		v = trunc(v, in.Dst.Size)
		var res uint64
		switch in.Op {
		case x86.SHL:
			res = v << cnt
			m.Flags.CF = cnt <= uint64(width) && v>>(uint64(width)-cnt)&1 != 0
		case x86.SHR:
			res = v >> cnt
			m.Flags.CF = v>>(cnt-1)&1 != 0
		case x86.SAR:
			// The last bit shifted out is the sign bit once cnt reaches
			// the operand width, so CF reads the sign-extended value.
			sv := signExtend(v, in.Dst.Size)
			res = uint64(sv >> cnt)
			m.Flags.CF = sv>>(cnt-1)&1 != 0
		case x86.ROL:
			c := cnt % uint64(width)
			res = v<<c | v>>(uint64(width)-c)
		case x86.ROR:
			c := cnt % uint64(width)
			res = v>>c | v<<(uint64(width)-c)
		}
		if in.Op != x86.ROL && in.Op != x86.ROR {
			m.setResultFlags(res, in.Dst.Size)
			if cnt == 1 {
				m.Flags.OF = signBit(res, in.Dst.Size) != signBit(v, in.Dst.Size)
			}
		}
		return m.writeOp(in, in.Dst, trunc(res, in.Dst.Size))

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

	return m.execSSE(in)
}
