package emu

import (
	"fmt"
	"math"

	"repro/internal/x86"
)

// xmmOf returns a pointer to the XMM register named by a register operand.
func (m *Machine) xmmOf(o x86.Operand) *XMMReg {
	return &m.XMM[o.Reg-x86.XMM0]
}

// readXMM reads an SSE source operand of the given byte width. Memory
// operands narrower than 16 bytes fill the low lanes and zero the rest.
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
	return XMMReg{}, fmt.Errorf("emu: bad SSE operand")
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

// AddF64, SubF64, MulF64 and DivF64 are the double-precision arithmetic of
// ADDSD/SUBSD/MULSD/DIVSD and their packed forms. The interpreter, the block
// engine and the trace VM all call these four and nothing inlines them, so
// every engine executes the same compiled instruction: when both operands are
// NaN the result carries the payload of whichever the host instruction takes
// as destination, and a Go compiler that commuted an inlined a+b at one call
// site but not another would make the engines disagree. (Native traces order
// the operands themselves; TestTraceNativeFP's both-NaN rows compare them
// with these.)
//
//go:noinline
func AddF64(a, b float64) float64 { return a + b }

//go:noinline
func SubF64(a, b float64) float64 { return a - b }

//go:noinline
func MulF64(a, b float64) float64 { return a * b }

//go:noinline
func DivF64(a, b float64) float64 { return a / b }

// scalarF64 applies op to the low double lanes, preserving the upper lane of
// dst (standard SSE scalar semantics).
func (m *Machine) scalarF64(in *x86.Inst, op func(a, b float64) float64) error {
	src, err := m.readXMM(in, in.Src, 8)
	if err != nil {
		return err
	}
	d := m.xmmOf(in.Dst)
	a := f64frombits(d.Lo)
	b := f64frombits(src.Lo)
	d.Lo = f64bits(op(a, b))
	return nil
}

func (m *Machine) scalarF32(in *x86.Inst, op func(a, b float32) float32) error {
	src, err := m.readXMM(in, in.Src, 4)
	if err != nil {
		return err
	}
	d := m.xmmOf(in.Dst)
	a := f32frombits(uint32(d.Lo))
	b := f32frombits(uint32(src.Lo))
	d.Lo = d.Lo&^uint64(0xFFFFFFFF) | uint64(f32bits(op(a, b)))
	return nil
}

func (m *Machine) packedF64(in *x86.Inst, op func(a, b float64) float64) error {
	src, err := m.readXMM(in, in.Src, 16)
	if err != nil {
		return err
	}
	d := m.xmmOf(in.Dst)
	d.Lo = f64bits(op(f64frombits(d.Lo), f64frombits(src.Lo)))
	d.Hi = f64bits(op(f64frombits(d.Hi), f64frombits(src.Hi)))
	return nil
}

func (m *Machine) packedF32(in *x86.Inst, op func(a, b float32) float32) error {
	src, err := m.readXMM(in, in.Src, 16)
	if err != nil {
		return err
	}
	d := m.xmmOf(in.Dst)
	dl, sl := d.Lanes32(), src.Lanes32()
	var out [4]uint32
	for i := range out {
		out[i] = f32bits(op(f32frombits(dl[i]), f32frombits(sl[i])))
	}
	*d = FromLanes32(out)
	return nil
}

func (m *Machine) bitwise(in *x86.Inst, op func(a, b uint64) uint64) error {
	src, err := m.readXMM(in, in.Src, 16)
	if err != nil {
		return err
	}
	d := m.xmmOf(in.Dst)
	d.Lo = op(d.Lo, src.Lo)
	d.Hi = op(d.Hi, src.Hi)
	return nil
}

// comi sets ZF/PF/CF from a scalar floating comparison (COMISD semantics).
func (m *Machine) comi(a, b float64) {
	f := &m.Flags
	f.OF, f.SF, f.AF = false, false, false
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		f.ZF, f.PF, f.CF = true, true, true
	case a > b:
		f.ZF, f.PF, f.CF = false, false, false
	case a < b:
		f.ZF, f.PF, f.CF = false, false, true
	default:
		f.ZF, f.PF, f.CF = true, false, false
	}
}

func (m *Machine) execSSE(in *x86.Inst) error {
	switch in.Op {
	case x86.MOVSD_X:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			src, err := m.readXMM(in, in.Src, 8)
			if err != nil {
				return err
			}
			d := m.xmmOf(in.Dst)
			if in.Src.Kind == x86.KMem {
				*d = XMMReg{Lo: src.Lo} // load form zeroes the upper lane
			} else {
				d.Lo = src.Lo // register form preserves it
			}
			return nil
		}
		return m.writeXMMMem(in, in.Dst, *m.xmmOf(in.Src), 8)
	case x86.MOVSS_X:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			src, err := m.readXMM(in, in.Src, 4)
			if err != nil {
				return err
			}
			d := m.xmmOf(in.Dst)
			if in.Src.Kind == x86.KMem {
				*d = XMMReg{Lo: src.Lo & 0xFFFFFFFF}
			} else {
				d.Lo = d.Lo&^uint64(0xFFFFFFFF) | src.Lo&0xFFFFFFFF
			}
			return nil
		}
		return m.writeXMMMem(in, in.Dst, *m.xmmOf(in.Src), 4)

	case x86.MOVAPS, x86.MOVAPD, x86.MOVDQA:
		if in.Dst.Kind == x86.KMem {
			addr := m.ea(in, in.Dst)
			if addr%16 != 0 {
				return fmt.Errorf("aligned 16-byte store to unaligned address %#x", addr)
			}
			return m.writeXMMMem(in, in.Dst, *m.xmmOf(in.Src), 16)
		}
		if in.Src.Kind == x86.KMem {
			addr := m.ea(in, in.Src)
			if addr%16 != 0 {
				return fmt.Errorf("aligned 16-byte load from unaligned address %#x", addr)
			}
		}
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		*m.xmmOf(in.Dst) = src
		return nil
	case x86.MOVUPS, x86.MOVUPD, x86.MOVDQU:
		if in.Dst.Kind == x86.KMem {
			return m.writeXMMMem(in, in.Dst, *m.xmmOf(in.Src), 16)
		}
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		*m.xmmOf(in.Dst) = src
		return nil

	case x86.MOVQ:
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			src, err := m.readXMM(in, in.Src, 8)
			if err != nil {
				return err
			}
			*m.xmmOf(in.Dst) = XMMReg{Lo: src.Lo} // zeroes upper lane
			return nil
		}
		return m.writeXMMMem(in, in.Dst, *m.xmmOf(in.Src), 8)
	case x86.MOVD, x86.MOVQGP:
		size := uint8(4)
		if in.Op == x86.MOVQGP {
			size = 8
		}
		if in.Dst.Kind == x86.KReg && in.Dst.Reg.IsXMM() {
			v, err := m.readOp(in, withSizeOp(in.Src, size))
			if err != nil {
				return err
			}
			*m.xmmOf(in.Dst) = XMMReg{Lo: trunc(v, size)}
			return nil
		}
		v := m.xmmOf(in.Src).Lo
		return m.writeOp(in, withSizeOp(in.Dst, size), trunc(v, size))

	case x86.MOVHPD:
		if in.Dst.Kind == x86.KReg {
			src, err := m.readXMM(in, in.Src, 8)
			if err != nil {
				return err
			}
			m.xmmOf(in.Dst).Hi = src.Lo
			return nil
		}
		return m.writeXMMMem(in, in.Dst, XMMReg{Lo: m.xmmOf(in.Src).Hi}, 8)
	case x86.MOVLPD:
		if in.Dst.Kind == x86.KReg {
			src, err := m.readXMM(in, in.Src, 8)
			if err != nil {
				return err
			}
			m.xmmOf(in.Dst).Lo = src.Lo
			return nil
		}
		return m.writeXMMMem(in, in.Dst, *m.xmmOf(in.Src), 8)

	case x86.ADDSD:
		return m.scalarF64(in, AddF64)
	case x86.SUBSD:
		return m.scalarF64(in, SubF64)
	case x86.MULSD:
		return m.scalarF64(in, MulF64)
	case x86.DIVSD:
		return m.scalarF64(in, DivF64)
	case x86.MINSD:
		return m.scalarF64(in, func(a, b float64) float64 {
			if b < a {
				return b
			}
			return a
		})
	case x86.MAXSD:
		return m.scalarF64(in, func(a, b float64) float64 {
			if b > a {
				return b
			}
			return a
		})
	case x86.SQRTSD:
		return m.scalarF64(in, func(_, b float64) float64 { return math.Sqrt(b) })
	case x86.ADDSS:
		return m.scalarF32(in, func(a, b float32) float32 { return a + b })
	case x86.SUBSS:
		return m.scalarF32(in, func(a, b float32) float32 { return a - b })
	case x86.MULSS:
		return m.scalarF32(in, func(a, b float32) float32 { return a * b })
	case x86.DIVSS:
		return m.scalarF32(in, func(a, b float32) float32 { return a / b })

	case x86.ADDPD:
		return m.packedF64(in, AddF64)
	case x86.SUBPD:
		return m.packedF64(in, SubF64)
	case x86.MULPD:
		return m.packedF64(in, MulF64)
	case x86.DIVPD:
		return m.packedF64(in, DivF64)
	case x86.ADDPS:
		return m.packedF32(in, func(a, b float32) float32 { return a + b })
	case x86.SUBPS:
		return m.packedF32(in, func(a, b float32) float32 { return a - b })
	case x86.MULPS:
		return m.packedF32(in, func(a, b float32) float32 { return a * b })
	case x86.DIVPS:
		return m.packedF32(in, func(a, b float32) float32 { return a / b })

	case x86.XORPS, x86.XORPD, x86.PXOR:
		return m.bitwise(in, func(a, b uint64) uint64 { return a ^ b })
	case x86.ANDPS, x86.ANDPD, x86.PAND:
		return m.bitwise(in, func(a, b uint64) uint64 { return a & b })
	case x86.ORPS, x86.ORPD, x86.POR:
		return m.bitwise(in, func(a, b uint64) uint64 { return a | b })
	case x86.PADDQ:
		return m.bitwise(in, func(a, b uint64) uint64 { return a + b })
	case x86.PSUBQ:
		return m.bitwise(in, func(a, b uint64) uint64 { return a - b })
	case x86.PADDD, x86.PSUBD:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		dl, sl := d.Lanes32(), src.Lanes32()
		var out [4]uint32
		for i := range out {
			if in.Op == x86.PADDD {
				out[i] = dl[i] + sl[i]
			} else {
				out[i] = dl[i] - sl[i]
			}
		}
		*d = FromLanes32(out)
		return nil

	case x86.UNPCKLPD, x86.PUNPCKLQDQ:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		d.Hi = src.Lo
		return nil
	case x86.UNPCKHPD:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		d.Lo = d.Hi
		d.Hi = src.Hi
		return nil
	case x86.UNPCKLPS:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		dl, sl := d.Lanes32(), src.Lanes32()
		*d = FromLanes32([4]uint32{dl[0], sl[0], dl[1], sl[1]})
		return nil

	case x86.SHUFPD:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		sel := uint8(in.Src2.Imm)
		lo := d.Lo
		if sel&1 != 0 {
			lo = d.Hi
		}
		hi := src.Lo
		if sel&2 != 0 {
			hi = src.Hi
		}
		d.Lo, d.Hi = lo, hi
		return nil
	case x86.SHUFPS:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		dl, sl := d.Lanes32(), src.Lanes32()
		sel := uint8(in.Src2.Imm)
		*d = FromLanes32([4]uint32{dl[sel&3], dl[sel>>2&3], sl[sel>>4&3], sl[sel>>6&3]})
		return nil
	case x86.PSHUFD:
		src, err := m.readXMM(in, in.Src, 16)
		if err != nil {
			return err
		}
		sl := src.Lanes32()
		sel := uint8(in.Src2.Imm)
		*m.xmmOf(in.Dst) = FromLanes32([4]uint32{sl[sel&3], sl[sel>>2&3], sl[sel>>4&3], sl[sel>>6&3]})
		return nil

	case x86.CVTSI2SD:
		v, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		m.xmmOf(in.Dst).Lo = f64bits(float64(signExtend(v, in.Src.Size)))
		return nil
	case x86.CVTSI2SS:
		v, err := m.readOp(in, in.Src)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		d.Lo = d.Lo&^uint64(0xFFFFFFFF) | uint64(f32bits(float32(signExtend(v, in.Src.Size))))
		return nil
	case x86.CVTTSD2SI:
		src, err := m.readXMM(in, in.Src, 8)
		if err != nil {
			return err
		}
		v := int64(f64frombits(src.Lo))
		return m.writeOp(in, in.Dst, trunc(uint64(v), in.Dst.Size))
	case x86.CVTSD2SS:
		src, err := m.readXMM(in, in.Src, 8)
		if err != nil {
			return err
		}
		d := m.xmmOf(in.Dst)
		d.Lo = d.Lo&^uint64(0xFFFFFFFF) | uint64(f32bits(float32(f64frombits(src.Lo))))
		return nil
	case x86.CVTSS2SD:
		src, err := m.readXMM(in, in.Src, 4)
		if err != nil {
			return err
		}
		m.xmmOf(in.Dst).Lo = f64bits(float64(f32frombits(uint32(src.Lo))))
		return nil

	case x86.COMISD, x86.UCOMISD:
		src, err := m.readXMM(in, in.Src, 8)
		if err != nil {
			return err
		}
		m.comi(f64frombits(m.xmmOf(in.Dst).Lo), f64frombits(src.Lo))
		return nil
	case x86.COMISS, x86.UCOMISS:
		src, err := m.readXMM(in, in.Src, 4)
		if err != nil {
			return err
		}
		m.comi(float64(f32frombits(uint32(m.xmmOf(in.Dst).Lo))), float64(f32frombits(uint32(src.Lo))))
		return nil
	case x86.MOVMSKPD:
		src := m.xmmOf(in.Src)
		v := src.Lo>>63 | src.Hi>>63<<1
		return m.writeOp(in, in.Dst, v)
	}
	return fmt.Errorf("emu: unimplemented instruction %v", in.Op)
}

func withSizeOp(o x86.Operand, size uint8) x86.Operand {
	if o.Kind == x86.KReg && o.Reg.IsXMM() {
		return o
	}
	o.Size = size
	return o
}
