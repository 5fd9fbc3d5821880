package x86

import (
	"encoding/binary"
	"fmt"
)

// DecodeError reports an undecodable byte sequence. DBrew treats it as a
// recoverable rewriting failure (the original function is returned).
type DecodeError struct {
	Addr uint64
	Byte byte
	Msg  string
}

// Error formats the decode failure with address and offending byte.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("x86: cannot decode at %#x (byte %#02x): %s", e.Addr, e.Byte, e.Msg)
}

// decodeState carries the prefix information collected before the opcode.
type decodeState struct {
	code   []byte
	pos    int
	addr   uint64
	rex    byte
	hasRex bool
	opSize bool // 0x66 seen
	repF2  bool
	repF3  bool
	seg    SegReg
}

func (d *decodeState) fail(msg string) error {
	b := byte(0)
	if d.pos < len(d.code) {
		b = d.code[d.pos]
	}
	return &DecodeError{Addr: d.addr + uint64(d.pos), Byte: b, Msg: msg}
}

func (d *decodeState) byte() (byte, error) {
	if d.pos >= len(d.code) {
		return 0, d.fail("truncated instruction")
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decodeState) i8() (int8, error) {
	b, err := d.byte()
	return int8(b), err
}

func (d *decodeState) i32() (int32, error) {
	if d.pos+4 > len(d.code) {
		return 0, d.fail("truncated imm32")
	}
	v := int32(binary.LittleEndian.Uint32(d.code[d.pos:]))
	d.pos += 4
	return v, nil
}

func (d *decodeState) i64() (int64, error) {
	if d.pos+8 > len(d.code) {
		return 0, d.fail("truncated imm64")
	}
	v := int64(binary.LittleEndian.Uint64(d.code[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *decodeState) imm(size uint8) (int64, error) {
	switch size {
	case 1:
		v, err := d.i8()
		return int64(v), err
	case 2:
		if d.pos+2 > len(d.code) {
			return 0, d.fail("truncated imm16")
		}
		v := int16(binary.LittleEndian.Uint16(d.code[d.pos:]))
		d.pos += 2
		return int64(v), nil
	case 4, 8:
		v, err := d.i32()
		return int64(v), err
	}
	return 0, d.fail("bad immediate size")
}

// opndSize returns the integer operand size implied by prefixes.
func (d *decodeState) opndSize() uint8 {
	switch {
	case d.hasRex && d.rex&8 != 0:
		return 8
	case d.opSize:
		return 2
	default:
		return 4
	}
}

// gpreg maps a 3-bit register field plus the relevant REX extension bit to a
// register operand of the given size, handling the high-byte aliases.
func (d *decodeState) gpreg(field byte, ext bool, size uint8) Operand {
	n := Reg(field)
	if ext {
		n += 8
	}
	if size == 1 && !d.hasRex && field >= 4 && !ext {
		return RegOp(AH+Reg(field-4), 1)
	}
	return RegOp(n, size)
}

func xmmreg(field byte, ext bool) Operand {
	n := XMM0 + Reg(field)
	if ext {
		n += 8
	}
	return RegOp(n, 16)
}

// modRM decodes a ModRM byte plus SIB/displacement. size is the access width
// for the r/m operand; xmm selects XMM interpretation of a register r/m.
func (d *decodeState) modRM(size uint8, xmm bool) (reg byte, rm Operand, err error) {
	mrm, err := d.byte()
	if err != nil {
		return 0, Operand{}, err
	}
	mod := mrm >> 6
	reg = (mrm >> 3) & 7
	rmf := mrm & 7

	if mod == 3 {
		if xmm {
			rm = xmmreg(rmf, d.rex&1 != 0)
			rm.Size = size
		} else {
			rm = d.gpreg(rmf, d.rex&1 != 0, size)
		}
		return reg, rm, nil
	}

	mem := MemArg{Base: NoReg, Index: NoReg, Scale: 1, Seg: d.seg}
	if rmf == 4 { // SIB
		sib, err := d.byte()
		if err != nil {
			return 0, Operand{}, err
		}
		scale := byte(1) << (sib >> 6)
		idx := (sib >> 3) & 7
		base := sib & 7
		if !(idx == 4 && d.rex&2 == 0) {
			r := Reg(idx)
			if d.rex&2 != 0 {
				r += 8
			}
			mem.Index = r
			mem.Scale = scale
		}
		if base == 5 && mod == 0 {
			disp, err := d.i32()
			if err != nil {
				return 0, Operand{}, err
			}
			mem.Disp = disp
		} else {
			r := Reg(base)
			if d.rex&1 != 0 {
				r += 8
			}
			mem.Base = r
		}
	} else if rmf == 5 && mod == 0 { // RIP-relative
		disp, err := d.i32()
		if err != nil {
			return 0, Operand{}, err
		}
		mem.Base = RIPVal
		mem.RIPRel = true
		mem.Disp = disp
	} else {
		r := Reg(rmf)
		if d.rex&1 != 0 {
			r += 8
		}
		mem.Base = r
	}
	switch mod {
	case 1:
		disp, err := d.i8()
		if err != nil {
			return 0, Operand{}, err
		}
		mem.Disp = int32(disp)
	case 2:
		disp, err := d.i32()
		if err != nil {
			return 0, Operand{}, err
		}
		mem.Disp = disp
	}
	return reg, Mem(size, mem), nil
}

// Decode decodes a single instruction at code[0:], which lives at virtual
// address addr. The returned instruction has Addr and Len set; relative
// branch targets are converted to absolute addresses.
func Decode(code []byte, addr uint64) (Inst, error) {
	d := &decodeState{code: code, addr: addr}

prefixLoop:
	for {
		if d.pos >= len(code) {
			return Inst{}, d.fail("empty instruction")
		}
		switch code[d.pos] {
		case 0x66:
			d.opSize = true
			d.pos++
		case 0xF2:
			d.repF2 = true
			d.pos++
		case 0xF3:
			d.repF3 = true
			d.pos++
		case 0x64:
			d.seg = SegFS
			d.pos++
		case 0x65:
			d.seg = SegGS
			d.pos++
		case 0x2E, 0x3E, 0x26, 0x36: // ignored segment prefixes in 64-bit mode
			d.pos++
		default:
			break prefixLoop
		}
	}
	if d.pos < len(code) && code[d.pos]&0xF0 == 0x40 {
		d.rex = code[d.pos]
		d.hasRex = true
		d.pos++
	}

	in, err := d.decodeOpcode()
	if err != nil {
		return Inst{}, err
	}
	in.Addr = addr
	in.Len = d.pos
	return in, nil
}

func (d *decodeState) regExtR() bool { return d.rex&4 != 0 }

func (d *decodeState) decodeOpcode() (Inst, error) {
	opc, err := d.byte()
	if err != nil {
		return Inst{}, err
	}
	size := d.opndSize()

	switch {
	case opc == 0x0F:
		return d.decode0F()

	// ALU family: 00-3B structured as digit*8 + form.
	case opc < 0x40 && opc&7 <= 3:
		ops := [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
		op := ops[opc>>3]
		form := opc & 7
		sz := size
		if form == 0 || form == 2 {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		r := d.gpreg(reg, d.regExtR(), sz)
		if form <= 1 { // r/m, r
			return Inst{Op: op, Dst: rm, Src: r}, nil
		}
		return Inst{Op: op, Dst: r, Src: rm}, nil
	case opc < 0x40 && opc&7 == 4: // op al, imm8
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		ops := [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
		return Inst{Op: ops[opc>>3], Dst: RegOp(RAX, 1), Src: Imm(int64(v), 1)}, nil
	case opc < 0x40 && opc&7 == 5: // op eax/rax, imm32
		v, err := d.imm(size)
		if err != nil {
			return Inst{}, err
		}
		ops := [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
		return Inst{Op: ops[opc>>3], Dst: RegOp(RAX, size), Src: Imm(v, size)}, nil

	case opc >= 0x50 && opc <= 0x57:
		r := Reg(opc - 0x50)
		if d.rex&1 != 0 {
			r += 8
		}
		return Inst{Op: PUSH, Dst: RegOp(r, 8)}, nil
	case opc >= 0x58 && opc <= 0x5F:
		r := Reg(opc - 0x58)
		if d.rex&1 != 0 {
			r += 8
		}
		return Inst{Op: POP, Dst: RegOp(r, 8)}, nil

	case opc == 0x63:
		reg, rm, err := d.modRM(4, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOVSXD, Dst: d.gpreg(reg, d.regExtR(), 8), Src: rm}, nil

	case opc == 0x68:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, Dst: Imm(int64(v), 8)}, nil
	case opc == 0x6A:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PUSH, Dst: Imm(int64(v), 8)}, nil

	case opc == 0x69 || opc == 0x6B:
		reg, rm, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		isz := uint8(4)
		if opc == 0x6B {
			isz = 1
		}
		v, err := d.imm(isz)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL3, Dst: d.gpreg(reg, d.regExtR(), size), Src: rm, Src2: Imm(v, size)}, nil

	case opc >= 0x70 && opc <= 0x7F: // Jcc rel8
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(int64(v))
		return Inst{Op: JCC, Cond: Cond(opc - 0x70), Dst: Imm(int64(target), 8)}, nil

	case opc == 0x80 || opc == 0x81 || opc == 0x83:
		sz := size
		if opc == 0x80 {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		isz := uint8(1)
		if opc == 0x81 {
			isz = min8(sz, 4)
			if sz == 2 {
				isz = 2
			}
		}
		v, err := d.imm(isz)
		if err != nil {
			return Inst{}, err
		}
		ops := [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
		return Inst{Op: ops[reg], Dst: rm, Src: Imm(v, sz)}, nil

	case opc == 0x84 || opc == 0x85:
		sz := size
		if opc == 0x84 {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: TEST, Dst: rm, Src: d.gpreg(reg, d.regExtR(), sz)}, nil

	case opc == 0x87:
		reg, rm, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: XCHG, Dst: rm, Src: d.gpreg(reg, d.regExtR(), size)}, nil

	case opc == 0x88 || opc == 0x89:
		sz := size
		if opc == 0x88 {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, Dst: rm, Src: d.gpreg(reg, d.regExtR(), sz)}, nil
	case opc == 0x8A || opc == 0x8B:
		sz := size
		if opc == 0x8A {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, Dst: d.gpreg(reg, d.regExtR(), sz), Src: rm}, nil

	case opc == 0x8D:
		reg, rm, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		if rm.Kind != KMem {
			return Inst{}, d.fail("lea with register operand")
		}
		return Inst{Op: LEA, Dst: d.gpreg(reg, d.regExtR(), size), Src: rm}, nil

	case opc == 0x8F:
		_, rm, err := d.modRM(8, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: POP, Dst: rm}, nil

	case opc == 0x90:
		return Inst{Op: NOP}, nil

	case opc == 0xF9:
		return Inst{Op: STC}, nil
	case opc == 0xF8:
		return Inst{Op: CLC}, nil

	case opc == 0x98:
		if size == 8 {
			return Inst{Op: CDQE}, nil
		}
		return Inst{}, d.fail("cwde not supported")
	case opc == 0x99:
		if size == 8 {
			return Inst{Op: CQO}, nil
		}
		return Inst{Op: CDQ}, nil

	case opc == 0xA4 || opc == 0xAA: // movsb / stosb (byte string ops)
		if d.repF2 {
			return Inst{}, d.fail("repne string op not supported")
		}
		switch {
		case opc == 0xA4 && d.repF3:
			return Inst{Op: REPMOVSB}, nil
		case opc == 0xA4:
			return Inst{Op: MOVSB}, nil
		case d.repF3:
			return Inst{Op: REPSTOSB}, nil
		default:
			return Inst{Op: STOSB}, nil
		}

	case opc >= 0xB0 && opc <= 0xB7:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOV, Dst: d.gpreg(opc-0xB0, d.rex&1 != 0, 1), Src: Imm(int64(v), 1)}, nil
	case opc >= 0xB8 && opc <= 0xBF:
		r := Reg(opc - 0xB8)
		if d.rex&1 != 0 {
			r += 8
		}
		if size == 8 {
			v, err := d.i64()
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: MOV, Dst: RegOp(r, 8), Src: Imm(v, 8)}, nil
		}
		v, err := d.imm(size)
		if err != nil {
			return Inst{}, err
		}
		if size == 4 {
			v = int64(uint32(v))
		}
		return Inst{Op: MOV, Dst: RegOp(r, size), Src: Imm(v, size)}, nil

	case opc == 0xC0 || opc == 0xC1 || opc == 0xD0 || opc == 0xD1 || opc == 0xD2 || opc == 0xD3:
		sz := size
		if opc == 0xC0 || opc == 0xD0 || opc == 0xD2 {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		ops := [8]Op{ROL, ROR, INVALID, INVALID, SHL, SHR, INVALID, SAR}
		op := ops[reg]
		if op == INVALID {
			return Inst{}, d.fail("unsupported shift digit")
		}
		switch opc {
		case 0xC0, 0xC1:
			v, err := d.i8()
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: op, Dst: rm, Src: Imm(int64(v), 1)}, nil
		case 0xD0, 0xD1:
			return Inst{Op: op, Dst: rm, Src: Imm(1, 1)}, nil
		default:
			return Inst{Op: op, Dst: rm, Src: RegOp(RCX, 1)}, nil
		}

	case opc == 0xC3:
		return Inst{Op: RET}, nil

	case opc == 0xC6 || opc == 0xC7:
		sz := size
		if opc == 0xC6 {
			sz = 1
		}
		_, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		isz := min8(sz, 4)
		v, err := d.imm(isz)
		if err != nil {
			return Inst{}, err
		}
		if sz == 4 {
			// Normalize with the B8+r form: a 32-bit destination is
			// zero-extended, so represent the immediate unsigned.
			v = int64(uint32(v))
		}
		return Inst{Op: MOV, Dst: rm, Src: Imm(v, sz)}, nil

	case opc == 0xE8 || opc == 0xE9:
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(int64(v))
		op := CALL
		if opc == 0xE9 {
			op = JMP
		}
		return Inst{Op: op, Dst: Imm(int64(target), 8)}, nil
	case opc == 0xEB:
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(int64(v))
		return Inst{Op: JMP, Dst: Imm(int64(target), 8)}, nil

	case opc == 0xF6 || opc == 0xF7:
		sz := size
		if opc == 0xF6 {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0, 1: // TEST r/m, imm
			isz := min8(sz, 4)
			v, err := d.imm(isz)
			if err != nil {
				return Inst{}, err
			}
			return Inst{Op: TEST, Dst: rm, Src: Imm(v, sz)}, nil
		case 2:
			return Inst{Op: NOT, Dst: rm}, nil
		case 3:
			return Inst{Op: NEG, Dst: rm}, nil
		case 4:
			return Inst{Op: MUL, Dst: rm}, nil
		case 6:
			return Inst{Op: DIV, Dst: rm}, nil
		case 7:
			return Inst{Op: IDIV, Dst: rm}, nil
		}
		return Inst{}, d.fail("unsupported F7 digit")

	case opc == 0xFE || opc == 0xFF:
		sz := size
		if opc == 0xFE {
			sz = 1
		}
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		switch reg {
		case 0:
			return Inst{Op: INC, Dst: rm}, nil
		case 1:
			return Inst{Op: DEC, Dst: rm}, nil
		case 2:
			if opc == 0xFF {
				return Inst{Op: CALLIndirect, Dst: withSize(rm, 8)}, nil
			}
		case 4:
			if opc == 0xFF {
				return Inst{Op: JMPIndirect, Dst: withSize(rm, 8)}, nil
			}
		case 6:
			if opc == 0xFF {
				return Inst{Op: PUSH, Dst: withSize(rm, 8)}, nil
			}
		}
		return Inst{}, d.fail("unsupported FF digit")
	}
	return Inst{}, d.fail("unsupported opcode")
}

// sse0FALU maps 0F second-byte opcodes plus mandatory prefix to SSE Ops.
type sseKey struct {
	opc    byte
	prefix byte // 0, 66, F2, F3
}

var sse0F = map[sseKey]Op{
	{0x58, pfxF2}: ADDSD, {0x5C, pfxF2}: SUBSD, {0x59, pfxF2}: MULSD, {0x5E, pfxF2}: DIVSD,
	{0x5D, pfxF2}: MINSD, {0x5F, pfxF2}: MAXSD, {0x51, pfxF2}: SQRTSD,
	{0x58, pfxF3}: ADDSS, {0x5C, pfxF3}: SUBSS, {0x59, pfxF3}: MULSS, {0x5E, pfxF3}: DIVSS,
	{0x58, pfx66}: ADDPD, {0x5C, pfx66}: SUBPD, {0x59, pfx66}: MULPD, {0x5E, pfx66}: DIVPD,
	{0x58, 0}: ADDPS, {0x5C, 0}: SUBPS, {0x59, 0}: MULPS, {0x5E, 0}: DIVPS,
	{0x57, 0}: XORPS, {0x57, pfx66}: XORPD, {0x54, 0}: ANDPS, {0x54, pfx66}: ANDPD,
	{0x56, 0}: ORPS, {0x56, pfx66}: ORPD,
	{0x14, pfx66}: UNPCKLPD, {0x15, pfx66}: UNPCKHPD, {0x14, 0}: UNPCKLPS,
	{0xEF, pfx66}: PXOR, {0xEB, pfx66}: POR, {0xDB, pfx66}: PAND,
	{0xFE, pfx66}: PADDD, {0xD4, pfx66}: PADDQ, {0xFA, pfx66}: PSUBD, {0xFB, pfx66}: PSUBQ,
	{0x6C, pfx66}: PUNPCKLQDQ,
	{0x2F, pfx66}: COMISD, {0x2E, pfx66}: UCOMISD, {0x2F, 0}: COMISS, {0x2E, 0}: UCOMISS,
	{0x5A, pfxF2}: CVTSD2SS, {0x5A, pfxF3}: CVTSS2SD,
}

// operand size (in bytes) of the r/m side of each SSE op when it is memory.
var sseMemSize = map[Op]uint8{
	ADDSD: 8, SUBSD: 8, MULSD: 8, DIVSD: 8, MINSD: 8, MAXSD: 8, SQRTSD: 8,
	ADDSS: 4, SUBSS: 4, MULSS: 4, DIVSS: 4,
	COMISD: 8, UCOMISD: 8, COMISS: 4, UCOMISS: 4,
	CVTSD2SS: 8, CVTSS2SD: 4,
}

func (d *decodeState) curPrefix() byte {
	switch {
	case d.repF2:
		return pfxF2
	case d.repF3:
		return pfxF3
	case d.opSize:
		return pfx66
	}
	return 0
}

func (d *decodeState) decode0F() (Inst, error) {
	opc, err := d.byte()
	if err != nil {
		return Inst{}, err
	}
	pfx := d.curPrefix()
	size := uint8(4)
	if d.rex&8 != 0 {
		size = 8
	}

	switch {
	case opc == 0x0B:
		return Inst{Op: UD2}, nil
	case opc == 0x1E && pfx == pfxF3:
		b, err := d.byte()
		if err != nil {
			return Inst{}, err
		}
		if b == 0xFA {
			return Inst{Op: ENDBR64}, nil
		}
		return Inst{}, d.fail("unsupported F3 0F 1E form")
	case opc == 0x1F: // multi-byte NOP
		_, _, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: NOP}, nil

	case opc == 0x10 || opc == 0x11: // movups/movupd/movss/movsd
		var op Op
		switch pfx {
		case 0:
			op = MOVUPS
		case pfx66:
			op = MOVUPD
		case pfxF2:
			op = MOVSD_X
		case pfxF3:
			op = MOVSS_X
		}
		msz := uint8(16)
		if op == MOVSD_X {
			msz = 8
		} else if op == MOVSS_X {
			msz = 4
		}
		reg, rm, err := d.modRM(msz, true)
		if err != nil {
			return Inst{}, err
		}
		x := xmmreg(reg, d.regExtR())
		if opc == 0x10 {
			return Inst{Op: op, Dst: x, Src: rm}, nil
		}
		return Inst{Op: op, Dst: rm, Src: x}, nil
	case opc == 0x28 || opc == 0x29:
		op := MOVAPS
		if pfx == pfx66 {
			op = MOVAPD
		}
		reg, rm, err := d.modRM(16, true)
		if err != nil {
			return Inst{}, err
		}
		x := xmmreg(reg, d.regExtR())
		if opc == 0x28 {
			return Inst{Op: op, Dst: x, Src: rm}, nil
		}
		return Inst{Op: op, Dst: rm, Src: x}, nil
	case opc == 0x6F || opc == 0x7F:
		var op Op
		switch pfx {
		case pfx66:
			op = MOVDQA
		case pfxF3:
			op = MOVDQU
		default:
			return Inst{}, d.fail("mmx not supported")
		}
		reg, rm, err := d.modRM(16, true)
		if err != nil {
			return Inst{}, err
		}
		x := xmmreg(reg, d.regExtR())
		if opc == 0x6F {
			return Inst{Op: op, Dst: x, Src: rm}, nil
		}
		return Inst{Op: op, Dst: rm, Src: x}, nil
	case opc == 0x12 || opc == 0x13 || opc == 0x16 || opc == 0x17:
		if pfx != pfx66 {
			return Inst{}, d.fail("only movlpd/movhpd supported")
		}
		op := MOVLPD
		if opc >= 0x16 {
			op = MOVHPD
		}
		reg, rm, err := d.modRM(8, true)
		if err != nil {
			return Inst{}, err
		}
		if rm.Kind != KMem { // x86 raises #UD for the register forms
			return Inst{}, d.fail("movlpd/movhpd with a register operand")
		}
		x := xmmreg(reg, d.regExtR())
		if opc == 0x12 || opc == 0x16 {
			return Inst{Op: op, Dst: x, Src: rm}, nil
		}
		return Inst{Op: op, Dst: rm, Src: x}, nil

	case opc == 0x7E && pfx == pfxF3: // movq xmm, xmm/m64
		reg, rm, err := d.modRM(8, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOVQ, Dst: xmmreg(reg, d.regExtR()), Src: rm}, nil
	case opc == 0xD6 && pfx == pfx66: // movq m64/xmm, xmm
		reg, rm, err := d.modRM(8, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: MOVQ, Dst: rm, Src: xmmreg(reg, d.regExtR())}, nil
	case opc == 0x6E && pfx == pfx66: // movd/movq xmm, r/m
		reg, rm, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		op := MOVD
		if size == 8 {
			op = MOVQGP
		}
		return Inst{Op: op, Dst: xmmreg(reg, d.regExtR()), Src: rm}, nil
	case opc == 0x7E && pfx == pfx66: // movd/movq r/m, xmm
		reg, rm, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		op := MOVD
		if size == 8 {
			op = MOVQGP
		}
		return Inst{Op: op, Dst: rm, Src: xmmreg(reg, d.regExtR())}, nil

	case opc == 0xC6: // shufps/shufpd
		op := SHUFPS
		if pfx == pfx66 {
			op = SHUFPD
		}
		reg, rm, err := d.modRM(16, true)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Dst: xmmreg(reg, d.regExtR()), Src: rm, Src2: Imm(int64(v), 1)}, nil
	case opc == 0x70 && pfx == pfx66:
		reg, rm, err := d.modRM(16, true)
		if err != nil {
			return Inst{}, err
		}
		v, err := d.i8()
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: PSHUFD, Dst: xmmreg(reg, d.regExtR()), Src: rm, Src2: Imm(int64(v), 1)}, nil

	case opc == 0x2A && (pfx == pfxF2 || pfx == pfxF3): // cvtsi2sd/ss
		reg, rm, err := d.modRM(size, false)
		if err != nil {
			return Inst{}, err
		}
		op := CVTSI2SD
		if pfx == pfxF3 {
			op = CVTSI2SS
		}
		return Inst{Op: op, Dst: xmmreg(reg, d.regExtR()), Src: rm}, nil
	case opc == 0x2C && pfx == pfxF2: // cvttsd2si
		reg, rm, err := d.modRM(8, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: CVTTSD2SI, Dst: d.gpreg(reg, d.regExtR(), size), Src: rm}, nil
	case opc == 0x50 && pfx == pfx66: // movmskpd
		reg, rm, err := d.modRM(16, true)
		if err != nil {
			return Inst{}, err
		}
		if rm.Kind != KReg { // x86 raises #UD for a memory source
			return Inst{}, d.fail("movmskpd with a memory operand")
		}
		return Inst{Op: MOVMSKPD, Dst: d.gpreg(reg, d.regExtR(), size), Src: rm}, nil

	case opc >= 0x40 && opc <= 0x4F: // CMOVcc
		sz := d.opndSize()
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: CMOVCC, Cond: Cond(opc - 0x40), Dst: d.gpreg(reg, d.regExtR(), sz), Src: rm}, nil
	case opc >= 0x80 && opc <= 0x8F: // Jcc rel32
		v, err := d.i32()
		if err != nil {
			return Inst{}, err
		}
		target := d.addr + uint64(d.pos) + uint64(int64(v))
		return Inst{Op: JCC, Cond: Cond(opc - 0x80), Dst: Imm(int64(target), 8)}, nil
	case opc >= 0x90 && opc <= 0x9F: // SETcc
		_, rm, err := d.modRM(1, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: SETCC, Cond: Cond(opc - 0x90), Dst: rm}, nil

	case opc == 0xB8 && pfx == pfxF3: // popcnt
		sz := d.opndSize()
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: POPCNT, Dst: d.gpreg(reg, d.regExtR(), sz), Src: rm}, nil

	case opc == 0xAF: // imul r, r/m
		sz := d.opndSize()
		reg, rm, err := d.modRM(sz, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: IMUL, Dst: d.gpreg(reg, d.regExtR(), sz), Src: rm}, nil

	case opc == 0xB6 || opc == 0xB7 || opc == 0xBE || opc == 0xBF: // movzx/movsx
		srcSize := uint8(1)
		if opc == 0xB7 || opc == 0xBF {
			srcSize = 2
		}
		op := MOVZX
		if opc >= 0xBE {
			op = MOVSX
		}
		sz := d.opndSize()
		reg, rm, err := d.modRM(srcSize, false)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Dst: d.gpreg(reg, d.regExtR(), sz), Src: rm}, nil
	}

	if op, ok := sse0F[sseKey{opc, pfx}]; ok {
		msz := sseMemSize[op]
		if msz == 0 {
			msz = 16
		}
		reg, rm, err := d.modRM(msz, true)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: op, Dst: xmmreg(reg, d.regExtR()), Src: rm}, nil
	}
	return Inst{}, d.fail("unsupported 0F opcode")
}
