package x86

import (
	"fmt"
	"strings"
)

// Op names an instruction mnemonic. Condition-dependent instructions (Jcc,
// SETcc, CMOVcc) use a single Op plus the Inst.Cond field.
type Op uint16

// Integer and control-flow operations.
const (
	INVALID Op = iota
	MOV
	MOVZX
	MOVSX
	MOVSXD
	LEA
	ADD
	ADC
	SUB
	SBB
	CMP
	AND
	OR
	XOR
	TEST
	NOT
	NEG
	INC
	DEC
	IMUL  // two-operand form
	IMUL3 // three-operand form with immediate
	MUL
	IDIV
	DIV
	CQO
	CDQ
	CDQE
	SHL
	SHR
	SAR
	ROL
	ROR
	PUSH
	POP
	CALL
	RET
	JMP
	JMPIndirect
	CALLIndirect
	JCC
	CMOVCC
	SETCC
	NOP
	STC
	CLC
	UD2
	XCHG
	ENDBR64
	POPCNT
	MOVSB    // byte string move [rdi] <- [rsi], rsi/rdi advance
	STOSB    // byte string store [rdi] <- al, rdi advances
	REPMOVSB // rep movsb: rcx-counted block copy
	REPSTOSB // rep stosb: rcx-counted block fill

	// SSE data movement.
	MOVSD_X // scalar double move (F2 0F 10/11)
	MOVSS_X
	MOVAPS
	MOVUPS
	MOVAPD
	MOVUPD
	MOVDQA
	MOVDQU
	MOVQ // 66/F3 0F D6 / 7E family
	MOVD // GP <-> XMM, 32-bit
	MOVQGP
	MOVHPD
	MOVLPD

	// SSE scalar floating point.
	ADDSD
	SUBSD
	MULSD
	DIVSD
	MINSD
	MAXSD
	SQRTSD
	ADDSS
	SUBSS
	MULSS
	DIVSS

	// SSE packed floating point.
	ADDPD
	SUBPD
	MULPD
	DIVPD
	ADDPS
	SUBPS
	MULPS
	DIVPS
	XORPS
	XORPD
	ANDPS
	ANDPD
	ORPS
	ORPD
	UNPCKLPD
	UNPCKHPD
	UNPCKLPS
	SHUFPD
	SHUFPS
	PSHUFD

	// SSE integer.
	PXOR
	POR
	PAND
	PADDD
	PADDQ
	PSUBD
	PSUBQ
	PUNPCKLQDQ

	// Conversions and comparisons.
	CVTSI2SD
	CVTSI2SS
	CVTTSD2SI
	CVTSD2SS
	CVTSS2SD
	COMISD
	UCOMISD
	COMISS
	UCOMISS
	MOVMSKPD

	// OpCount is the number of opcodes, for tables indexed by Op.
	OpCount
)

var opNames = map[Op]string{
	MOV: "mov", MOVZX: "movzx", MOVSX: "movsx", MOVSXD: "movsxd", LEA: "lea",
	ADD: "add", ADC: "adc", SUB: "sub", SBB: "sbb", CMP: "cmp",
	AND: "and", OR: "or", XOR: "xor", TEST: "test",
	NOT: "not", NEG: "neg", INC: "inc", DEC: "dec",
	IMUL: "imul", IMUL3: "imul", MUL: "mul", IDIV: "idiv", DIV: "div",
	CQO: "cqo", CDQ: "cdq", CDQE: "cdqe",
	SHL: "shl", SHR: "shr", SAR: "sar", ROL: "rol", ROR: "ror",
	PUSH: "push", POP: "pop", CALL: "call", RET: "ret", JMP: "jmp",
	JMPIndirect: "jmp", CALLIndirect: "call",
	NOP: "nop", STC: "stc", CLC: "clc",
	UD2: "ud2", XCHG: "xchg", ENDBR64: "endbr64", POPCNT: "popcnt",
	MOVSB: "movsb", STOSB: "stosb", REPMOVSB: "rep movsb", REPSTOSB: "rep stosb",
	MOVSD_X: "movsd", MOVSS_X: "movss", MOVAPS: "movaps", MOVUPS: "movups",
	MOVAPD: "movapd", MOVUPD: "movupd", MOVDQA: "movdqa", MOVDQU: "movdqu",
	MOVQ: "movq", MOVD: "movd", MOVQGP: "movq", MOVHPD: "movhpd", MOVLPD: "movlpd",
	ADDSD: "addsd", SUBSD: "subsd", MULSD: "mulsd", DIVSD: "divsd",
	MINSD: "minsd", MAXSD: "maxsd", SQRTSD: "sqrtsd",
	ADDSS: "addss", SUBSS: "subss", MULSS: "mulss", DIVSS: "divss",
	ADDPD: "addpd", SUBPD: "subpd", MULPD: "mulpd", DIVPD: "divpd",
	ADDPS: "addps", SUBPS: "subps", MULPS: "mulps", DIVPS: "divps",
	XORPS: "xorps", XORPD: "xorpd", ANDPS: "andps", ANDPD: "andpd",
	ORPS: "orps", ORPD: "orpd",
	UNPCKLPD: "unpcklpd", UNPCKHPD: "unpckhpd", UNPCKLPS: "unpcklps",
	SHUFPD: "shufpd", SHUFPS: "shufps", PSHUFD: "pshufd",
	PXOR: "pxor", POR: "por", PAND: "pand",
	PADDD: "paddd", PADDQ: "paddq", PSUBD: "psubd", PSUBQ: "psubq",
	PUNPCKLQDQ: "punpcklqdq",
	CVTSI2SD:   "cvtsi2sd", CVTSI2SS: "cvtsi2ss", CVTTSD2SI: "cvttsd2si",
	CVTSD2SS: "cvtsd2ss", CVTSS2SD: "cvtss2sd",
	COMISD: "comisd", UCOMISD: "ucomisd", COMISS: "comiss", UCOMISS: "ucomiss",
	MOVMSKPD: "movmskpd",
}

// String returns the base mnemonic (condition-generic for jcc/cmovcc/setcc).
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	switch o {
	case JCC:
		return "jcc"
	case CMOVCC:
		return "cmovcc"
	case SETCC:
		return "setcc"
	}
	return fmt.Sprintf("op%d", uint16(o))
}

// OperandKind distinguishes the operand variants.
type OperandKind uint8

// Operand kinds.
const (
	KNone OperandKind = iota
	KReg
	KImm
	KMem
)

// MemArg is an x86 memory operand: [base + index*scale + disp], optionally
// with a segment override or RIP-relative base.
type MemArg struct {
	Base   Reg
	Index  Reg
	Scale  uint8 // 1, 2, 4, or 8
	Disp   int32
	Seg    SegReg
	RIPRel bool
}

// Operand is a single instruction operand. Size is the access width in
// bytes: 1, 2, 4, 8, or 16 for a full vector register or memory access.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Size uint8
	Imm  int64
	Mem  MemArg
}

// RegOp constructs a register operand of the given width.
func RegOp(r Reg, size uint8) Operand { return Operand{Kind: KReg, Reg: r, Size: size} }

// R64 constructs a 64-bit GP register operand.
func R64(r Reg) Operand { return RegOp(r, 8) }

// R32 constructs a 32-bit GP register operand.
func R32(r Reg) Operand { return RegOp(r, 4) }

// R16 constructs a 16-bit GP register operand.
func R16(r Reg) Operand { return RegOp(r, 2) }

// R8 constructs an 8-bit GP register operand.
func R8L(r Reg) Operand { return RegOp(r, 1) }

// X constructs a full-width XMM register operand.
func X(r Reg) Operand { return RegOp(r, 16) }

// Imm constructs an immediate operand. Size is the width of the destination
// the immediate applies to.
func Imm(v int64, size uint8) Operand { return Operand{Kind: KImm, Imm: v, Size: size} }

// Mem constructs a memory operand.
func Mem(size uint8, m MemArg) Operand { return Operand{Kind: KMem, Size: size, Mem: m} }

// MemBD constructs a [base+disp] memory operand.
func MemBD(size uint8, base Reg, disp int32) Operand {
	return Mem(size, MemArg{Base: base, Index: NoReg, Scale: 1, Disp: disp})
}

// MemBIS constructs a [base + index*scale + disp] memory operand.
func MemBIS(size uint8, base, index Reg, scale uint8, disp int32) Operand {
	return Mem(size, MemArg{Base: base, Index: index, Scale: scale, Disp: disp})
}

// MemAbs constructs an absolute-address memory operand (encoded via SIB with
// no base; only reachable for 32-bit addresses).
func MemAbs(size uint8, addr int32) Operand {
	return Mem(size, MemArg{Base: NoReg, Index: NoReg, Scale: 1, Disp: addr})
}

// MemRIP constructs a RIP-relative memory operand; Disp is relative to the
// end of the instruction.
func MemRIP(size uint8, disp int32) Operand {
	return Mem(size, MemArg{Base: RIPVal, Index: NoReg, Scale: 1, Disp: disp, RIPRel: true})
}

// IsReg reports whether the operand is a register operand for r.
func (o Operand) IsReg(r Reg) bool { return o.Kind == KReg && o.Reg == r }

func (o Operand) format() string {
	switch o.Kind {
	case KReg:
		return o.Reg.Name(o.Size)
	case KImm:
		if o.Imm < 0 || o.Imm > 9 {
			return fmt.Sprintf("%#x", o.Imm)
		}
		return fmt.Sprintf("%d", o.Imm)
	case KMem:
		var b strings.Builder
		switch o.Size {
		case 1:
			b.WriteString("byte ptr ")
		case 2:
			b.WriteString("word ptr ")
		case 4:
			b.WriteString("dword ptr ")
		case 8:
			b.WriteString("qword ptr ")
		case 16:
			b.WriteString("xmmword ptr ")
		}
		if o.Mem.Seg != SegNone {
			b.WriteString(o.Mem.Seg.String())
			b.WriteString(":")
		}
		b.WriteString("[")
		first := true
		if o.Mem.RIPRel {
			b.WriteString("rip")
			first = false
		} else if o.Mem.Base != NoReg {
			b.WriteString(o.Mem.Base.Name(8))
			first = false
		}
		if o.Mem.Index != NoReg {
			if !first {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%d*%s", o.Mem.Scale, o.Mem.Index.Name(8))
			first = false
		}
		if o.Mem.Disp != 0 || first {
			if first {
				fmt.Fprintf(&b, "%#x", uint32(o.Mem.Disp))
			} else if o.Mem.Disp > 0 {
				fmt.Fprintf(&b, " + %#x", o.Mem.Disp)
			} else {
				fmt.Fprintf(&b, " - %#x", -int64(o.Mem.Disp))
			}
		}
		b.WriteString("]")
		return b.String()
	}
	return ""
}

// Inst is one decoded or to-be-encoded instruction. For relative branches
// (JMP, JCC, CALL) the target is stored in Imm as an absolute address once
// decoded, or as a label index before assembly. Cond is meaningful only for
// JCC, CMOVCC and SETCC.
type Inst struct {
	Op   Op
	Cond Cond
	Dst  Operand
	Src  Operand
	Src2 Operand // third operand: IMUL3 immediate, SHUFPD selector

	// Addr and Len are filled by the decoder: the address the instruction
	// was decoded from and its encoded length in bytes.
	Addr uint64
	Len  int
}

// NArgs reports the number of present operands.
func (in Inst) NArgs() int {
	switch {
	case in.Src2.Kind != KNone:
		return 3
	case in.Src.Kind != KNone:
		return 2
	case in.Dst.Kind != KNone:
		return 1
	}
	return 0
}

// Mnemonic returns the full mnemonic including the condition suffix.
func (in Inst) Mnemonic() string {
	switch in.Op {
	case JCC:
		return "j" + in.Cond.String()
	case CMOVCC:
		return "cmov" + in.Cond.String()
	case SETCC:
		return "set" + in.Cond.String()
	}
	return in.Op.String()
}

// String renders the instruction in Intel syntax.
func (in Inst) String() string {
	m := in.Mnemonic()
	switch in.Op {
	case JMP, JCC, CALL:
		return fmt.Sprintf("%s %#x", m, uint64(in.Dst.Imm))
	}
	parts := make([]string, 0, 3)
	for _, o := range []Operand{in.Dst, in.Src, in.Src2} {
		if o.Kind != KNone {
			parts = append(parts, o.format())
		}
	}
	if len(parts) == 0 {
		return m
	}
	return m + " " + strings.Join(parts, ", ")
}

// IsBranch reports whether the instruction modifies control flow.
func (in Inst) IsBranch() bool {
	switch in.Op {
	case JMP, JMPIndirect, JCC, CALL, CALLIndirect, RET, UD2:
		return true
	}
	return false
}

// BranchTarget returns the absolute target address of a direct branch and
// whether the instruction has one.
func (in Inst) BranchTarget() (uint64, bool) {
	switch in.Op {
	case JMP, JCC, CALL:
		return uint64(in.Dst.Imm), true
	}
	return 0, false
}
