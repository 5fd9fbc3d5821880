package x86

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrRel32Range reports a JMP, JCC or CALL whose target is more than
// ±2 GiB away from the end of the instruction.
var ErrRel32Range = errors.New("branch target out of rel32 range")

// Encoder assembles instructions into x86-64 machine code. Instructions are
// appended to Buf; PC tracks the virtual address of the next instruction so
// relative branches and RIP-relative operands can be resolved.
type Encoder struct {
	Buf []byte
	PC  uint64
}

// NewEncoder returns an encoder emitting code for the given base address.
func NewEncoder(base uint64) *Encoder { return &Encoder{PC: base} }

// Encode appends the encoding of in and advances PC. Branch targets
// (Dst.Imm of JMP/JCC/CALL) are absolute addresses.
func (e *Encoder) Encode(in Inst) error {
	start := len(e.Buf)
	if err := e.encode(in); err != nil {
		e.Buf = e.Buf[:start]
		return fmt.Errorf("x86: encode %v: %w", in, err)
	}
	e.PC += uint64(len(e.Buf) - start)
	return nil
}

// EncodeAll encodes a sequence of instructions, stopping at the first error.
func (e *Encoder) EncodeAll(insts []Inst) error {
	for _, in := range insts {
		if err := e.Encode(in); err != nil {
			return err
		}
	}
	return nil
}

// legacy prefixes
const (
	pfx66 = 0x66
	pfxF2 = 0xF2
	pfxF3 = 0xF3
)

// modrm captures everything needed to emit a ModRM-form instruction.
type modrm struct {
	prefix byte   // 0, 0x66, 0xF2, 0xF3
	opc    []byte // opcode bytes (including 0F escape)
	reg    byte   // value of the ModRM reg field (register encoding or /digit)
	regExt bool   // REX.R
	rm     Operand
	rexW   bool
	opSize uint8 // operand size for 66-prefix decision on integer ops (2 => 66)
	imm    []byte
	rex8   bool // force REX presence for SPL/BPL/SIL/DIL access
	noRex  bool // high-byte register in use: REX must not be emitted
}

func (e *Encoder) emitModRM(m modrm) error {
	// Segment override.
	if m.rm.Kind == KMem {
		switch m.rm.Mem.Seg {
		case SegFS:
			e.Buf = append(e.Buf, 0x64)
		case SegGS:
			e.Buf = append(e.Buf, 0x65)
		}
	}
	if m.opSize == 2 {
		e.Buf = append(e.Buf, pfx66)
	}
	if m.prefix != 0 {
		e.Buf = append(e.Buf, m.prefix)
	}

	rex := byte(0x40)
	need := m.rexW || m.rex8
	if m.rexW {
		rex |= 8
	}
	if m.regExt {
		rex |= 4
		need = true
	}

	var modrmByte, sib byte
	var hasSIB bool
	var disp []byte
	var ripFixup bool

	switch m.rm.Kind {
	case KReg:
		r := m.rm.Reg
		enc := r.enc()
		if (r.IsGP() && r >= R8) || (r.IsXMM() && r >= XMM8) {
			rex |= 1
			need = true
		}
		modrmByte = 0xC0 | (m.reg&7)<<3 | enc&7
		if r.IsHighByte() {
			m.noRex = true
		}
		if m.rm.Size == 1 && r.IsGP() && r >= RSP && r <= RDI {
			need = true // SPL/BPL/SIL/DIL require a REX prefix
		}
	case KMem:
		mem := m.rm.Mem
		if mem.RIPRel {
			modrmByte = 0x00 | (m.reg&7)<<3 | 5
			disp = le32(uint32(mem.Disp))
			ripFixup = true
			break
		}
		base, idx := mem.Base, mem.Index
		if base != NoReg && base >= R8 && base.IsGP() {
			rex |= 1
			need = true
		}
		if idx != NoReg && idx >= R8 && idx.IsGP() {
			rex |= 2
			need = true
		}
		needSIB := idx != NoReg || base == NoReg || base == RSP || base == R12
		var mod byte
		switch {
		case base == NoReg:
			mod = 0 // disp32, SIB with base=101
			disp = le32(uint32(mem.Disp))
		case mem.Disp == 0 && base != RBP && base != R13:
			mod = 0
		case mem.Disp >= -128 && mem.Disp <= 127:
			mod = 1
			disp = []byte{byte(mem.Disp)}
		default:
			mod = 2
			disp = le32(uint32(mem.Disp))
		}
		if needSIB {
			modrmByte = mod<<6 | (m.reg&7)<<3 | 4
			var ss byte
			switch mem.Scale {
			case 1, 0:
				ss = 0
			case 2:
				ss = 1
			case 4:
				ss = 2
			case 8:
				ss = 3
			default:
				return fmt.Errorf("bad scale %d", mem.Scale)
			}
			ib := byte(4) // none
			if idx != NoReg {
				if idx == RSP {
					return fmt.Errorf("rsp cannot be an index register")
				}
				ib = idx.enc() & 7
			}
			bb := byte(5) // none => disp32
			if base != NoReg {
				bb = base.enc() & 7
			}
			sib = ss<<6 | ib<<3 | bb
			hasSIB = true
		} else {
			modrmByte = mod<<6 | (m.reg&7)<<3 | base.enc()&7
		}
	default:
		return fmt.Errorf("bad rm operand kind %d", m.rm.Kind)
	}

	if need {
		if m.noRex {
			return fmt.Errorf("high-byte register cannot be combined with REX")
		}
		e.Buf = append(e.Buf, rex)
	}
	e.Buf = append(e.Buf, m.opc...)
	e.Buf = append(e.Buf, modrmByte)
	if hasSIB {
		e.Buf = append(e.Buf, sib)
	}
	if ripFixup {
		// Disp was specified relative to the end of the instruction, which
		// is exactly how it is encoded; nothing further to adjust because
		// the immediate (if any) follows and the caller pre-adjusted.
		_ = ripFixup
	}
	e.Buf = append(e.Buf, disp...)
	e.Buf = append(e.Buf, m.imm...)
	return nil
}

func le32(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

func le64(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

func immBytes(v int64, size uint8) ([]byte, error) {
	switch size {
	case 1:
		if v < -128 || v > 255 {
			return nil, fmt.Errorf("immediate %d does not fit in 8 bits", v)
		}
		return []byte{byte(v)}, nil
	case 2:
		if v < -32768 || v > 65535 {
			return nil, fmt.Errorf("immediate %d does not fit in 16 bits", v)
		}
		return []byte{byte(v), byte(v >> 8)}, nil
	case 4, 8:
		if v < -(1<<31) || v > (1<<31)-1 {
			return nil, fmt.Errorf("immediate %d does not fit in 32 bits", v)
		}
		return le32(uint32(v)), nil
	}
	return nil, fmt.Errorf("bad immediate size %d", size)
}

// aluSpec describes the classic ALU encoding family (ADD/OR/ADC/SBB/AND/SUB/XOR/CMP).
var aluDigit = map[Op]byte{ADD: 0, OR: 1, ADC: 2, SBB: 3, AND: 4, SUB: 5, XOR: 6, CMP: 7}

// sseSpec describes a prefix + 0F-opcode SSE instruction where dst must be xmm.
type sseSpec struct {
	prefix byte
	opc    byte
}

var sseALU = map[Op]sseSpec{
	ADDSD: {pfxF2, 0x58}, SUBSD: {pfxF2, 0x5C}, MULSD: {pfxF2, 0x59}, DIVSD: {pfxF2, 0x5E},
	MINSD: {pfxF2, 0x5D}, MAXSD: {pfxF2, 0x5F}, SQRTSD: {pfxF2, 0x51},
	ADDSS: {pfxF3, 0x58}, SUBSS: {pfxF3, 0x5C}, MULSS: {pfxF3, 0x59}, DIVSS: {pfxF3, 0x5E},
	ADDPD: {pfx66, 0x58}, SUBPD: {pfx66, 0x5C}, MULPD: {pfx66, 0x59}, DIVPD: {pfx66, 0x5E},
	ADDPS: {0, 0x58}, SUBPS: {0, 0x5C}, MULPS: {0, 0x59}, DIVPS: {0, 0x5E},
	XORPS: {0, 0x57}, XORPD: {pfx66, 0x57}, ANDPS: {0, 0x54}, ANDPD: {pfx66, 0x54},
	ORPS: {0, 0x56}, ORPD: {pfx66, 0x56},
	UNPCKLPD: {pfx66, 0x14}, UNPCKHPD: {pfx66, 0x15}, UNPCKLPS: {0, 0x14},
	PXOR: {pfx66, 0xEF}, POR: {pfx66, 0xEB}, PAND: {pfx66, 0xDB},
	PADDD: {pfx66, 0xFE}, PADDQ: {pfx66, 0xD4}, PSUBD: {pfx66, 0xFA}, PSUBQ: {pfx66, 0xFB},
	PUNPCKLQDQ: {pfx66, 0x6C},
	COMISD:     {pfx66, 0x2F}, UCOMISD: {pfx66, 0x2E},
	COMISS: {0, 0x2F}, UCOMISS: {0, 0x2E},
	CVTSD2SS: {pfxF2, 0x5A}, CVTSS2SD: {pfxF3, 0x5A},
}

// moveSpec describes SSE load/store pairs: opcLoad for xmm <- rm, opcStore
// for rm <- xmm.
type moveSpec struct {
	prefix             byte
	opcLoad, opcStore  byte
	storePrefix        byte // if nonzero, store form uses a different prefix
	hasDistinctProfile bool
}

var sseMove = map[Op]moveSpec{
	MOVSD_X: {prefix: pfxF2, opcLoad: 0x10, opcStore: 0x11},
	MOVSS_X: {prefix: pfxF3, opcLoad: 0x10, opcStore: 0x11},
	MOVAPS:  {prefix: 0, opcLoad: 0x28, opcStore: 0x29},
	MOVUPS:  {prefix: 0, opcLoad: 0x10, opcStore: 0x11},
	MOVAPD:  {prefix: pfx66, opcLoad: 0x28, opcStore: 0x29},
	MOVUPD:  {prefix: pfx66, opcLoad: 0x10, opcStore: 0x11},
	MOVDQA:  {prefix: pfx66, opcLoad: 0x6F, opcStore: 0x7F},
	MOVDQU:  {prefix: pfxF3, opcLoad: 0x6F, opcStore: 0x7F},
	MOVHPD:  {prefix: pfx66, opcLoad: 0x16, opcStore: 0x17},
	MOVLPD:  {prefix: pfx66, opcLoad: 0x12, opcStore: 0x13},
}

func (e *Encoder) encode(in Inst) error {
	dst, src := in.Dst, in.Src
	switch in.Op {
	case NOP:
		e.Buf = append(e.Buf, 0x90)
		return nil
	case STC:
		e.Buf = append(e.Buf, 0xF9)
		return nil
	case CLC:
		e.Buf = append(e.Buf, 0xF8)
		return nil
	case UD2:
		e.Buf = append(e.Buf, 0x0F, 0x0B)
		return nil
	case ENDBR64:
		e.Buf = append(e.Buf, 0xF3, 0x0F, 0x1E, 0xFA)
		return nil
	case RET:
		e.Buf = append(e.Buf, 0xC3)
		return nil
	case MOVSB:
		e.Buf = append(e.Buf, 0xA4)
		return nil
	case STOSB:
		e.Buf = append(e.Buf, 0xAA)
		return nil
	case REPMOVSB:
		e.Buf = append(e.Buf, 0xF3, 0xA4)
		return nil
	case REPSTOSB:
		e.Buf = append(e.Buf, 0xF3, 0xAA)
		return nil
	case CQO:
		e.Buf = append(e.Buf, 0x48, 0x99)
		return nil
	case CDQ:
		e.Buf = append(e.Buf, 0x99)
		return nil
	case CDQE:
		e.Buf = append(e.Buf, 0x48, 0x98)
		return nil

	case JMP, CALL, JCC:
		// Always encode with rel32 for a fixed instruction length.
		target := uint64(dst.Imm)
		var header []byte
		switch in.Op {
		case JMP:
			header = []byte{0xE9}
		case CALL:
			header = []byte{0xE8}
		case JCC:
			header = []byte{0x0F, 0x80 + byte(in.Cond)}
		}
		end := e.PC + uint64(len(header)) + 4
		rel := int64(target) - int64(end)
		if rel < -(1<<31) || rel > (1<<31)-1 {
			return ErrRel32Range
		}
		e.Buf = append(e.Buf, header...)
		e.Buf = append(e.Buf, le32(uint32(rel))...)
		return nil

	case JMPIndirect:
		return e.emitModRM(modrm{opc: []byte{0xFF}, reg: 4, rm: dst})
	case CALLIndirect:
		return e.emitModRM(modrm{opc: []byte{0xFF}, reg: 2, rm: dst})

	case PUSH:
		switch dst.Kind {
		case KReg:
			if dst.Reg >= R8 {
				e.Buf = append(e.Buf, 0x41)
			}
			e.Buf = append(e.Buf, 0x50+dst.Reg.enc()&7)
			return nil
		case KImm:
			if dst.Imm >= -128 && dst.Imm <= 127 {
				e.Buf = append(e.Buf, 0x6A, byte(dst.Imm))
			} else {
				e.Buf = append(e.Buf, 0x68)
				e.Buf = append(e.Buf, le32(uint32(dst.Imm))...)
			}
			return nil
		case KMem:
			return e.emitModRM(modrm{opc: []byte{0xFF}, reg: 6, rm: dst})
		}
	case POP:
		if dst.Kind == KReg {
			if dst.Reg >= R8 {
				e.Buf = append(e.Buf, 0x41)
			}
			e.Buf = append(e.Buf, 0x58+dst.Reg.enc()&7)
			return nil
		}
		return e.emitModRM(modrm{opc: []byte{0x8F}, reg: 0, rm: dst})

	case MOV:
		return e.encodeMov(in)
	case MOVZX, MOVSX:
		var opc []byte
		base := byte(0xB6)
		if in.Op == MOVSX {
			base = 0xBE
		}
		switch src.Size {
		case 1:
			opc = []byte{0x0F, base}
		case 2:
			opc = []byte{0x0F, base + 1}
		default:
			return fmt.Errorf("movzx/movsx source must be 8- or 16-bit")
		}
		return e.emitModRM(modrm{opc: opc, reg: dst.Reg.enc(), regExt: dst.Reg >= R8,
			rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)})
	case MOVSXD:
		return e.emitModRM(modrm{opc: []byte{0x63}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8,
			rm: src, rexW: true})
	case LEA:
		if src.Kind != KMem {
			return fmt.Errorf("lea requires a memory source")
		}
		return e.emitModRM(modrm{opc: []byte{0x8D}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8,
			rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)})

	case ADD, OR, ADC, SBB, AND, SUB, XOR, CMP:
		return e.encodeALU(in, aluDigit[in.Op])
	case TEST:
		if src.Kind == KImm {
			imm, err := immBytes(src.Imm, min8(dst.Size, 4))
			if err != nil {
				return err
			}
			opc := byte(0xF7)
			if dst.Size == 1 {
				opc = 0xF6
			}
			return e.emitModRM(modrm{opc: []byte{opc}, reg: 0, rm: dst,
				rexW: dst.Size == 8, opSize: op66(dst.Size), imm: imm})
		}
		opc := byte(0x85)
		if dst.Size == 1 {
			opc = 0x84
		}
		m := modrm{opc: []byte{opc}, reg: src.Reg.enc(), regExt: src.Reg >= R8 && src.Reg.IsGP(),
			rm: dst, rexW: dst.Size == 8, opSize: op66(dst.Size)}
		if src.Reg.IsHighByte() {
			m.noRex = true
		}
		if dst.Size == 1 && src.Reg.IsGP() && src.Reg >= RSP && src.Reg <= RDI {
			m.rex8 = true
		}
		return e.emitModRM(m)
	case XCHG:
		return e.emitModRM(modrm{opc: []byte{0x87}, reg: src.Reg.enc(), regExt: src.Reg >= R8 && src.Reg.IsGP(),
			rm: dst, rexW: dst.Size == 8, opSize: op66(dst.Size)})
	case POPCNT:
		return e.emitModRM(modrm{prefix: pfxF3, opc: []byte{0x0F, 0xB8}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= R8 && dst.Reg.IsGP(), rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)})

	case NOT, NEG, MUL, IDIV, DIV:
		digit := map[Op]byte{NOT: 2, NEG: 3, MUL: 4, IDIV: 7, DIV: 6}[in.Op]
		opc := byte(0xF7)
		if dst.Size == 1 {
			opc = 0xF6
		}
		return e.emitModRM(modrm{opc: []byte{opc}, reg: digit, rm: dst,
			rexW: dst.Size == 8, opSize: op66(dst.Size)})
	case INC, DEC:
		digit := byte(0)
		if in.Op == DEC {
			digit = 1
		}
		opc := byte(0xFF)
		if dst.Size == 1 {
			opc = 0xFE
		}
		return e.emitModRM(modrm{opc: []byte{opc}, reg: digit, rm: dst,
			rexW: dst.Size == 8, opSize: op66(dst.Size)})

	case IMUL:
		return e.emitModRM(modrm{opc: []byte{0x0F, 0xAF}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8,
			rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)})
	case IMUL3:
		immv := in.Src2.Imm
		if immv >= -128 && immv <= 127 {
			return e.emitModRM(modrm{opc: []byte{0x6B}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8,
				rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size), imm: []byte{byte(immv)}})
		}
		imm, err := immBytes(immv, 4)
		if err != nil {
			return err
		}
		return e.emitModRM(modrm{opc: []byte{0x69}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8,
			rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size), imm: imm})

	case SHL, SHR, SAR, ROL, ROR:
		digit := map[Op]byte{ROL: 0, ROR: 1, SHL: 4, SHR: 5, SAR: 7}[in.Op]
		opcImm, opcCL, opc1 := byte(0xC1), byte(0xD3), byte(0xD1)
		if dst.Size == 1 {
			opcImm, opcCL, opc1 = 0xC0, 0xD2, 0xD0
		}
		switch {
		case src.Kind == KImm && src.Imm == 1:
			return e.emitModRM(modrm{opc: []byte{opc1}, reg: digit, rm: dst,
				rexW: dst.Size == 8, opSize: op66(dst.Size)})
		case src.Kind == KImm:
			return e.emitModRM(modrm{opc: []byte{opcImm}, reg: digit, rm: dst,
				rexW: dst.Size == 8, opSize: op66(dst.Size), imm: []byte{byte(src.Imm)}})
		case src.IsReg(RCX):
			return e.emitModRM(modrm{opc: []byte{opcCL}, reg: digit, rm: dst,
				rexW: dst.Size == 8, opSize: op66(dst.Size)})
		}
		return fmt.Errorf("shift count must be immediate or cl")

	case CMOVCC:
		return e.emitModRM(modrm{opc: []byte{0x0F, 0x40 + byte(in.Cond)}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= R8, rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)})
	case SETCC:
		m := modrm{opc: []byte{0x0F, 0x90 + byte(in.Cond)}, reg: 0, rm: dst}
		if dst.Kind == KReg && dst.Reg.IsGP() && dst.Reg >= RSP && dst.Reg <= RDI {
			m.rex8 = true
		}
		return e.emitModRM(m)

	case MOVQ:
		// movq xmm, xmm/m64 = F3 0F 7E; movq m64/xmm, xmm = 66 0F D6
		if dst.Kind == KReg && dst.Reg.IsXMM() {
			return e.emitModRM(modrm{prefix: pfxF3, opc: []byte{0x0F, 0x7E}, reg: dst.Reg.enc(),
				regExt: dst.Reg >= XMM8, rm: withSize(src, 8)})
		}
		return e.emitModRM(modrm{prefix: pfx66, opc: []byte{0x0F, 0xD6}, reg: src.Reg.enc(),
			regExt: src.Reg >= XMM8, rm: withSize(dst, 8)})
	case MOVD, MOVQGP:
		w := in.Op == MOVQGP
		if dst.Kind == KReg && dst.Reg.IsXMM() {
			return e.emitModRM(modrm{prefix: pfx66, opc: []byte{0x0F, 0x6E}, reg: dst.Reg.enc(),
				regExt: dst.Reg >= XMM8, rm: src, rexW: w})
		}
		return e.emitModRM(modrm{prefix: pfx66, opc: []byte{0x0F, 0x7E}, reg: src.Reg.enc(),
			regExt: src.Reg >= XMM8, rm: dst, rexW: w})

	case SHUFPD, SHUFPS, PSHUFD:
		spec := map[Op]sseSpec{SHUFPD: {pfx66, 0xC6}, SHUFPS: {0, 0xC6}, PSHUFD: {pfx66, 0x70}}[in.Op]
		return e.emitModRM(modrm{prefix: spec.prefix, opc: []byte{0x0F, spec.opc}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= XMM8, rm: src, imm: []byte{byte(in.Src2.Imm)}})

	case CVTSI2SD, CVTSI2SS:
		p := byte(pfxF2)
		if in.Op == CVTSI2SS {
			p = pfxF3
		}
		return e.emitModRM(modrm{prefix: p, opc: []byte{0x0F, 0x2A}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= XMM8, rm: src, rexW: src.Size == 8})
	case CVTTSD2SI:
		return e.emitModRM(modrm{prefix: pfxF2, opc: []byte{0x0F, 0x2C}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= R8 && dst.Reg.IsGP(), rm: src, rexW: dst.Size == 8})
	case MOVMSKPD:
		return e.emitModRM(modrm{prefix: pfx66, opc: []byte{0x0F, 0x50}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= R8 && dst.Reg.IsGP(), rm: src})
	}

	if spec, ok := sseALU[in.Op]; ok {
		return e.emitModRM(modrm{prefix: spec.prefix, opc: []byte{0x0F, spec.opc}, reg: dst.Reg.enc(),
			regExt: dst.Reg >= XMM8, rm: src})
	}
	if spec, ok := sseMove[in.Op]; ok {
		if dst.Kind == KReg && dst.Reg.IsXMM() {
			return e.emitModRM(modrm{prefix: spec.prefix, opc: []byte{0x0F, spec.opcLoad}, reg: dst.Reg.enc(),
				regExt: dst.Reg >= XMM8, rm: src})
		}
		return e.emitModRM(modrm{prefix: spec.prefix, opc: []byte{0x0F, spec.opcStore}, reg: src.Reg.enc(),
			regExt: src.Reg >= XMM8, rm: dst})
	}

	return fmt.Errorf("unsupported opcode %v", in.Op)
}

func (e *Encoder) encodeMov(in Inst) error {
	dst, src := in.Dst, in.Src
	switch {
	case src.Kind == KImm && dst.Kind == KReg:
		// 64-bit immediates outside int32 range need movabs (B8+r io).
		if dst.Size == 8 && (src.Imm < -(1<<31) || src.Imm > (1<<31)-1) {
			rex := byte(0x48)
			if dst.Reg >= R8 {
				rex |= 1
			}
			e.Buf = append(e.Buf, rex, 0xB8+dst.Reg.enc()&7)
			e.Buf = append(e.Buf, le64(uint64(src.Imm))...)
			return nil
		}
		if dst.Size == 8 {
			imm, err := immBytes(src.Imm, 4)
			if err != nil {
				return err
			}
			return e.emitModRM(modrm{opc: []byte{0xC7}, reg: 0, rm: dst, rexW: true, imm: imm})
		}
		// 32-bit and narrower: B8+r / B0+r short forms.
		if dst.Size == 4 {
			if dst.Reg >= R8 {
				e.Buf = append(e.Buf, 0x41)
			}
			e.Buf = append(e.Buf, 0xB8+dst.Reg.enc()&7)
			e.Buf = append(e.Buf, le32(uint32(src.Imm))...)
			return nil
		}
		imm, err := immBytes(src.Imm, dst.Size)
		if err != nil {
			return err
		}
		opc := byte(0xC7)
		if dst.Size == 1 {
			opc = 0xC6
		}
		return e.emitModRM(modrm{opc: []byte{opc}, reg: 0, rm: dst, opSize: op66(dst.Size), imm: imm})
	case src.Kind == KImm && dst.Kind == KMem:
		opc := byte(0xC7)
		isz := min8(dst.Size, 4)
		if dst.Size == 1 {
			opc = 0xC6
			isz = 1
		}
		imm, err := immBytes(src.Imm, isz)
		if err != nil {
			return err
		}
		return e.emitModRM(modrm{opc: []byte{opc}, reg: 0, rm: dst,
			rexW: dst.Size == 8, opSize: op66(dst.Size), imm: imm})
	case dst.Kind == KReg && (src.Kind == KMem || src.Kind == KReg):
		opc := byte(0x8B)
		if dst.Size == 1 {
			opc = 0x8A
		}
		m := modrm{opc: []byte{opc}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8 && dst.Reg.IsGP(),
			rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)}
		if dst.Reg.IsHighByte() {
			m.noRex = true
		}
		if dst.Size == 1 && dst.Reg.IsGP() && dst.Reg >= RSP && dst.Reg <= RDI {
			m.rex8 = true
		}
		return e.emitModRM(m)
	case dst.Kind == KMem && src.Kind == KReg:
		opc := byte(0x89)
		if src.Size == 1 {
			opc = 0x88
		}
		m := modrm{opc: []byte{opc}, reg: src.Reg.enc(), regExt: src.Reg >= R8 && src.Reg.IsGP(),
			rm: dst, rexW: src.Size == 8, opSize: op66(src.Size)}
		if src.Reg.IsHighByte() {
			m.noRex = true
		}
		if src.Size == 1 && src.Reg.IsGP() && src.Reg >= RSP && src.Reg <= RDI {
			m.rex8 = true
		}
		return e.emitModRM(m)
	}
	return fmt.Errorf("unsupported mov form")
}

func (e *Encoder) encodeALU(in Inst, digit byte) error {
	dst, src := in.Dst, in.Src
	op8 := digit*8 + 0 // e.g. ADD r/m8, r8 = 00
	switch {
	case src.Kind == KImm:
		size := dst.Size
		if size == 1 {
			imm, err := immBytes(src.Imm, 1)
			if err != nil {
				return err
			}
			return e.emitModRM(modrm{opc: []byte{0x80}, reg: digit, rm: dst, imm: imm})
		}
		if src.Imm >= -128 && src.Imm <= 127 {
			return e.emitModRM(modrm{opc: []byte{0x83}, reg: digit, rm: dst,
				rexW: size == 8, opSize: op66(size), imm: []byte{byte(src.Imm)}})
		}
		imm, err := immBytes(src.Imm, min8(size, 4))
		if err != nil {
			return err
		}
		return e.emitModRM(modrm{opc: []byte{0x81}, reg: digit, rm: dst,
			rexW: size == 8, opSize: op66(size), imm: imm})
	case src.Kind == KReg && (dst.Kind == KReg || dst.Kind == KMem):
		opc := op8 + 1 // r/m, r
		if dst.Size == 1 {
			opc = op8
		}
		m := modrm{opc: []byte{opc}, reg: src.Reg.enc(), regExt: src.Reg >= R8 && src.Reg.IsGP(),
			rm: dst, rexW: dst.Size == 8, opSize: op66(dst.Size)}
		if src.Reg.IsHighByte() {
			m.noRex = true
		}
		if dst.Size == 1 && src.Reg.IsGP() && src.Reg >= RSP && src.Reg <= RDI {
			m.rex8 = true // spl/bpl/sil/dil need a REX prefix
		}
		return m.emit(e)
	case src.Kind == KMem && dst.Kind == KReg:
		opc := op8 + 3 // r, r/m
		if dst.Size == 1 {
			opc = op8 + 2
		}
		m := modrm{opc: []byte{opc}, reg: dst.Reg.enc(), regExt: dst.Reg >= R8 && dst.Reg.IsGP(),
			rm: src, rexW: dst.Size == 8, opSize: op66(dst.Size)}
		if dst.Reg.IsHighByte() {
			m.noRex = true
		}
		if dst.Size == 1 && dst.Reg.IsGP() && dst.Reg >= RSP && dst.Reg <= RDI {
			m.rex8 = true
		}
		return e.emitModRM(m)
	}
	return fmt.Errorf("unsupported ALU form")
}

func (m modrm) emit(e *Encoder) error { return e.emitModRM(m) }

func op66(size uint8) uint8 {
	if size == 2 {
		return 2
	}
	return 0
}

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

func withSize(o Operand, size uint8) Operand {
	o.Size = size
	return o
}

// EncodeInst is a convenience wrapper encoding a single instruction at pc.
func EncodeInst(in Inst, pc uint64) ([]byte, error) {
	e := NewEncoder(pc)
	if err := e.Encode(in); err != nil {
		return nil, err
	}
	return e.Buf, nil
}
