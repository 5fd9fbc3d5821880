package emu

import (
	"fmt"

	"repro/internal/x86"
)

// xmmOf returns a pointer to the XMM register named by a register operand.
func (m *Machine) xmmOf(o x86.Operand) *XMMReg {
	return &m.XMM[o.Reg-x86.XMM0]
}

// readXMM reads an SSE source operand: a whole XMM register, a GP register
// facet, or size bytes of memory filling the low lanes and zeroing the rest.
func (m *Machine) readXMM(in *x86.Inst, o x86.Operand, size int) (XMMReg, error) {
	switch o.Kind {
	case x86.KReg:
		if !o.Reg.IsXMM() {
			v := m.gpRead(o.Reg, o.Size)
			return XMMReg{Lo: v}, nil
		}
		return *m.xmmOf(o), nil
	case x86.KMem:
		addr := m.ea(in, o)
		m.accountMem(addr, size, false)
		switch size {
		case 4:
			v, err := m.Mem.ReadU(addr, 4)
			return XMMReg{Lo: v}, err
		case 8:
			v, err := m.Mem.ReadU(addr, 8)
			return XMMReg{Lo: v}, err
		case 16:
			lo, hi, err := m.Mem.Read128(addr)
			return XMMReg{Lo: lo, Hi: hi}, err
		}
	}
	return XMMReg{}, errBadSSE
}

func (m *Machine) writeXMMMem(in *x86.Inst, o x86.Operand, v XMMReg, size int) error {
	addr := m.ea(in, o)
	m.accountMem(addr, size, true)
	switch size {
	case 4:
		return m.Mem.WriteU(addr, 4, v.Lo&0xFFFFFFFF)
	case 8:
		return m.Mem.WriteU(addr, 8, v.Lo)
	case 16:
		return m.Mem.Write128(addr, v.Lo, v.Hi)
	}
	return fmt.Errorf("emu: bad SSE store size %d", size)
}

// execSSE runs an instruction of the SSE kernel: it reads the source, hands
// it and the destination's value to the opcode's kernel function, and
// writes the result back.
func (m *Machine) execSSE(in *x86.Inst) error {
	k := sseOp(in)
	if k == nil {
		return fmt.Errorf("emu: unimplemented instruction %v", in.Op)
	}
	if k.mem == sseAligned && in.Src.Kind == x86.KMem {
		if addr := m.ea(in, in.Src); addr%16 != 0 {
			return misaligned(addr, false)
		}
	}
	s, err := m.readXMM(in, in.Src, k.width)
	if err != nil {
		return err
	}
	imm := uint8(in.Src2.Imm)
	switch {
	case in.Dst.Kind == x86.KMem:
		res := k.fn(XMMReg{}, s, imm, &m.Flags)
		if k.mem == sseAligned {
			if addr := m.ea(in, in.Dst); addr%16 != 0 {
				return misaligned(addr, true)
			}
		}
		return m.writeXMMMem(in, in.Dst, res, k.width)
	case !in.Dst.Reg.IsXMM():
		return m.writeOp(in, in.Dst, k.fn(XMMReg{}, s, imm, &m.Flags).Lo)
	}
	d := m.xmmOf(in.Dst)
	if k.mem == sseZeroing && in.Src.Kind == x86.KMem {
		*d = k.fn(XMMReg{}, s, imm, &m.Flags)
	} else {
		*d = k.fn(*d, s, imm, &m.Flags)
	}
	return nil
}

// misaligned is the fault of a movap*/movdqa access at an address that is
// not 16-byte aligned.
func misaligned(addr uint64, store bool) error {
	if store {
		return fmt.Errorf("aligned 16-byte store to unaligned address %#x", addr)
	}
	return fmt.Errorf("aligned 16-byte load from unaligned address %#x", addr)
}
