package x86

import (
	"testing"
)

// corpus returns a broad set of instructions covering the encoder's forms.
func corpus() []Inst {
	i := func(op Op, args ...Operand) Inst {
		in := Inst{Op: op}
		if len(args) > 0 {
			in.Dst = args[0]
		}
		if len(args) > 1 {
			in.Src = args[1]
		}
		if len(args) > 2 {
			in.Src2 = args[2]
		}
		return in
	}
	return []Inst{
		i(NOP), i(RET), i(UD2), i(CQO), i(CDQ), i(CDQE), i(ENDBR64),
		// MOV forms.
		i(MOV, R64(RAX), R64(RBX)),
		i(MOV, R64(R8), R64(R15)),
		i(MOV, R32(RCX), R32(RDI)),
		i(MOV, R64(RAX), Imm(42, 8)),
		i(MOV, R64(RAX), Imm(0x123456789A, 8)),
		i(MOV, R64(R12), Imm(-1, 8)),
		i(MOV, R32(RDX), Imm(7, 4)),
		i(MOV, R8L(RAX), Imm(255, 1)),
		i(MOV, RegOp(AH, 1), R8L(RBX)),
		i(MOV, R64(RAX), MemBD(8, RBP, -0xc)),
		i(MOV, MemBD(8, RSP, 16), R64(RDI)),
		i(MOV, MemBIS(4, RSI, RCX, 4, 8), R32(RAX)),
		i(MOV, R32(RAX), MemBIS(4, NoReg, RDX, 8, 0x100)),
		i(MOV, MemAbs(8, 0x14c47d8), R64(RAX)),
		i(MOV, R64(RAX), MemRIP(8, 0x1234)),
		i(MOV, MemBD(1, RDI, 3), R8L(RSI)),
		i(MOV, R16(RBX), MemBD(2, RAX, 0)),
		i(MOV, MemBD(8, R13, 0), R64(RAX)),
		i(MOV, MemBD(8, RBP, 0), R64(RAX)),
		i(MOV, MemBD(8, R12, 0), R64(RAX)),
		i(MOV, MemBD(4, RSP, 0), R32(RAX)),
		i(MOV, Mem(8, MemArg{Base: NoReg, Index: NoReg, Scale: 1, Disp: 0x28, Seg: SegFS}), R64(RAX)),
		// MOVZX/MOVSX/MOVSXD.
		i(MOVZX, R32(RAX), R8L(RBX)),
		i(MOVZX, R64(RCX), MemBD(1, RSI, 2)),
		i(MOVZX, R32(RAX), R16(RDX)),
		i(MOVSX, R64(RAX), R8L(RCX)),
		i(MOVSX, R32(RDI), MemBD(2, RBP, -8)),
		i(MOVSXD, R64(RAX), R32(RDX)),
		i(MOVSXD, R64(R9), MemBD(4, RDI, 4)),
		// LEA.
		i(LEA, R64(RAX), MemBIS(8, RDI, RSI, 2, 5)),
		i(LEA, R64(R10), MemBD(8, RSP, -16)),
		i(LEA, R32(RAX), MemBIS(4, RAX, RAX, 4, 0)),
		// ALU.
		i(ADD, R64(RAX), R64(RBX)),
		i(ADD, R64(RAX), Imm(1, 8)),
		i(ADD, R64(RAX), Imm(0x1000, 8)),
		i(ADD, R32(RCX), MemBD(4, RDI, 0)),
		i(ADD, MemBD(8, RSI, 8), R64(RDX)),
		i(SUB, R64(RSP), Imm(0x28, 8)),
		i(SUB, R64(RAX), Imm(1, 8)),
		i(CMP, R64(RDI), R64(RSI)),
		i(CMP, R32(RAX), Imm(100, 4)),
		i(CMP, MemBD(4, RBP, -4), Imm(9, 4)),
		i(AND, R64(RAX), Imm(-16, 8)),
		i(OR, R32(RDX), R32(RCX)),
		i(XOR, R32(RAX), R32(RAX)),
		i(XOR, R64(R15), R64(R15)),
		i(ADC, R64(RAX), Imm(0, 8)),
		i(SBB, R32(RDX), R32(RDX)),
		i(TEST, R64(RAX), R64(RAX)),
		i(TEST, R32(RDI), Imm(1, 4)),
		i(XCHG, R64(RAX), R64(RDX)),
		// Unary.
		i(NOT, R64(RAX)), i(NEG, R32(RDX)), i(NEG, MemBD(8, RSP, 8)),
		i(INC, R64(RCX)), i(DEC, R32(RAX)), i(INC, MemBD(4, RDI, 0)),
		i(MUL, R64(RBX)), i(IDIV, R64(RCX)), i(DIV, R32(RSI)),
		// IMUL.
		i(IMUL, R64(RAX), R64(RBX)),
		i(IMUL, R32(RDX), MemBD(4, RSI, 4)),
		i(IMUL3, R64(RAX), R64(RCX), Imm(649, 8)),
		i(IMUL3, R32(RAX), R32(RAX), Imm(3, 4)),
		// Shifts.
		i(SHL, R64(RAX), Imm(3, 1)),
		i(SHR, R32(RDX), Imm(1, 1)),
		i(SAR, R64(RCX), Imm(63, 1)),
		i(SHL, R64(RAX), RegOp(RCX, 1)),
		i(ROL, R32(RAX), Imm(8, 1)),
		i(ROR, R64(RBX), Imm(16, 1)),
		// Stack.
		i(PUSH, R64(RBP)), i(PUSH, R64(R12)), i(POP, R64(RBP)), i(POP, R64(R14)),
		i(PUSH, Imm(5, 8)), i(PUSH, Imm(0x1234, 8)), i(PUSH, MemBD(8, RAX, 0)),
		// cmov/setcc.
		i(CMOVCC, R64(RAX), R64(RSI)).withCond(CondL),
		i(CMOVCC, R32(RDX), MemBD(4, RDI, 8)).withCond(CondNE),
		i(SETCC, R8L(RAX)).withCond(CondE),
		i(SETCC, MemBD(1, RBP, -1)).withCond(CondG),
		i(SETCC, R8L(RSI)).withCond(CondB),
		// SSE moves.
		i(MOVSD_X, X(XMM0), MemBIS(8, RSI, RAX, 8, 0)),
		i(MOVSD_X, MemBIS(8, RDX, RCX, 8, 0), X(XMM1)),
		i(MOVSD_X, X(XMM0), X(XMM1)),
		i(MOVSS_X, X(XMM2), MemBD(4, RDI, 12)),
		i(MOVAPS, X(XMM0), X(XMM7)),
		i(MOVAPS, MemBD(16, RSP, 0), X(XMM8)),
		i(MOVUPS, X(XMM1), MemBD(16, RSI, 8)),
		i(MOVAPD, X(XMM3), MemBD(16, RDI, 0)),
		i(MOVUPD, MemBD(16, RDX, 24), X(XMM15)),
		i(MOVDQA, X(XMM4), MemBD(16, RSP, 32)),
		i(MOVDQU, X(XMM5), MemBD(16, RSI, 1)),
		i(MOVQ, X(XMM0), MemBD(8, RAX, 0)),
		i(MOVQ, MemBD(8, RAX, 0), X(XMM0)),
		i(MOVQ, X(XMM1), X(XMM2)),
		i(MOVD, X(XMM0), R32(RAX)),
		i(MOVD, R32(RDX), X(XMM3)),
		i(MOVQGP, X(XMM0), R64(RDI)),
		i(MOVQGP, R64(RAX), X(XMM0)),
		i(MOVHPD, X(XMM0), MemBD(8, RSI, 8)),
		i(MOVLPD, MemBD(8, RDI, 0), X(XMM2)),
		// SSE arithmetic.
		i(ADDSD, X(XMM0), X(XMM1)),
		i(ADDSD, X(XMM0), MemBIS(8, RSI, RCX, 8, 8)),
		i(SUBSD, X(XMM3), MemBD(8, RAX, 0)),
		i(MULSD, X(XMM0), MemAbs(8, 0x14c47d8)),
		i(DIVSD, X(XMM1), X(XMM2)),
		i(MINSD, X(XMM0), X(XMM4)), i(MAXSD, X(XMM0), X(XMM5)),
		i(SQRTSD, X(XMM1), X(XMM1)),
		i(ADDSS, X(XMM0), X(XMM1)), i(MULSS, X(XMM2), MemBD(4, RSI, 4)),
		i(ADDPD, X(XMM0), X(XMM1)),
		i(ADDPD, X(XMM0), MemBD(16, RSI, 16)),
		i(SUBPD, X(XMM2), X(XMM3)), i(MULPD, X(XMM4), MemBD(16, RDI, 0)),
		i(DIVPD, X(XMM0), X(XMM1)),
		i(ADDPS, X(XMM0), X(XMM1)), i(MULPS, X(XMM1), MemBD(16, RSI, 0)),
		i(XORPS, X(XMM0), X(XMM0)), i(XORPD, X(XMM1), X(XMM1)),
		i(ANDPS, X(XMM0), X(XMM3)), i(ANDPD, X(XMM2), X(XMM3)),
		i(ORPS, X(XMM0), X(XMM1)), i(ORPD, X(XMM5), X(XMM6)),
		i(UNPCKLPD, X(XMM0), X(XMM1)), i(UNPCKHPD, X(XMM2), X(XMM3)),
		i(UNPCKLPS, X(XMM0), X(XMM2)),
		i(PXOR, X(XMM1), X(XMM1)), i(POR, X(XMM0), X(XMM2)), i(PAND, X(XMM3), X(XMM4)),
		i(PADDD, X(XMM0), X(XMM1)), i(PADDQ, X(XMM2), MemBD(16, RSI, 0)),
		i(PSUBD, X(XMM5), X(XMM6)), i(PSUBQ, X(XMM7), X(XMM8)),
		i(PUNPCKLQDQ, X(XMM0), X(XMM1)),
		i(SHUFPD, X(XMM0), X(XMM1), Imm(1, 1)),
		i(SHUFPS, X(XMM2), X(XMM3), Imm(0x1B, 1)),
		i(PSHUFD, X(XMM0), X(XMM1), Imm(0x4E, 1)),
		// Conversions / compares.
		i(CVTSI2SD, X(XMM0), R64(RAX)),
		i(CVTSI2SD, X(XMM1), R32(RDX)),
		i(CVTSI2SS, X(XMM2), R32(RCX)),
		i(CVTTSD2SI, R64(RAX), X(XMM0)),
		i(CVTTSD2SI, R32(RDX), X(XMM3)),
		i(CVTSD2SS, X(XMM0), X(XMM1)),
		i(CVTSS2SD, X(XMM1), MemBD(4, RSI, 0)),
		i(COMISD, X(XMM0), X(XMM1)),
		i(UCOMISD, X(XMM0), MemBD(8, RDI, 8)),
		i(COMISS, X(XMM2), X(XMM3)),
		i(UCOMISS, X(XMM4), X(XMM5)),
		i(MOVMSKPD, R32(RAX), X(XMM0)),
		// Byte string operations.
		i(MOVSB),
		i(STOSB),
		i(REPMOVSB),
		i(REPSTOSB),
		// Indirect control flow (decode-only targets).
		i(JMPIndirect, R64(RAX)),
		i(CALLIndirect, MemBD(8, RBX, 0)),
	}
}

func (in Inst) withCond(c Cond) Inst {
	in.Cond = c
	return in
}

// TestEncodeDecodeRoundTrip encodes every corpus instruction, decodes the
// bytes, re-encodes the decoded form, and requires identical machine code.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	const base = 0x401000
	for _, in := range corpus() {
		enc, err := EncodeInst(in, base)
		if err != nil {
			t.Errorf("encode %v: %v", in, err)
			continue
		}
		dec, err := Decode(enc, base)
		if err != nil {
			t.Errorf("decode %v (% x): %v", in, enc, err)
			continue
		}
		if dec.Len != len(enc) {
			t.Errorf("%v: decoded length %d, encoded %d bytes", in, dec.Len, len(enc))
		}
		re, err := EncodeInst(dec, base)
		if err != nil {
			t.Errorf("re-encode %v -> %v: %v", in, dec, err)
			continue
		}
		if string(re) != string(enc) {
			t.Errorf("%v: round trip mismatch\n  enc  % x (%v)\n  re   % x (%v)", in, enc, in, re, dec)
		}
	}
}

// TestBranchRoundTrip checks relative branch target resolution.
func TestBranchRoundTrip(t *testing.T) {
	const base = 0x400000
	cases := []Inst{
		{Op: JMP, Dst: Imm(0x400100, 8)},
		{Op: CALL, Dst: Imm(0x3FFF00, 8)},
		{Op: JCC, Cond: CondLE, Dst: Imm(0x400050, 8)},
		{Op: JCC, Cond: CondNE, Dst: Imm(0x400000, 8)},
	}
	for _, in := range cases {
		enc, err := EncodeInst(in, base)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		dec, err := Decode(enc, base)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if got, want := uint64(dec.Dst.Imm), uint64(in.Dst.Imm); got != want {
			t.Errorf("%v: target %#x, want %#x", in, got, want)
		}
		if dec.Op != in.Op || dec.Cond != in.Cond {
			t.Errorf("%v: decoded as %v", in, dec)
		}
	}
}

// TestDecodeRel8 checks that short branches (which GCC emits and the encoder
// does not) decode correctly.
func TestDecodeRel8(t *testing.T) {
	// jmp +5 from 0x1000: EB 03 -> target = 0x1000+2+3.
	dec, err := Decode([]byte{0xEB, 0x03}, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Op != JMP || uint64(dec.Dst.Imm) != 0x1005 {
		t.Errorf("got %v, want jmp 0x1005", dec)
	}
	// jl -2 from 0x2000: 7C FE -> target = 0x2000.
	dec, err = Decode([]byte{0x7C, 0xFE}, 0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Op != JCC || dec.Cond != CondL || uint64(dec.Dst.Imm) != 0x2000 {
		t.Errorf("got %v, want jl 0x2000", dec)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},           // empty
		{0x66},       // prefix only
		{0x0F, 0xFF}, // unsupported 0F opcode
		{0xE9, 0x01}, // truncated rel32
		{0x8B},       // missing modrm
		// SSE forms x86 raises #UD for
		{0x66, 0x0F, 0x50, 0x07}, // movmskpd eax, [rdi]
		{0x66, 0x0F, 0x12, 0xC1}, // movlpd xmm0, xmm1
		{0x66, 0x0F, 0x17, 0xC1}, // movhpd xmm1, xmm0
	}
	for _, c := range cases {
		if _, err := Decode(c, 0); err == nil {
			t.Errorf("decode % x: expected error", c)
		}
	}
}

func TestRegisterNames(t *testing.T) {
	cases := []struct {
		r    Reg
		size uint8
		want string
	}{
		{RAX, 8, "rax"}, {RAX, 4, "eax"}, {RAX, 2, "ax"}, {RAX, 1, "al"},
		{RSP, 1, "spl"}, {R8, 4, "r8d"}, {R15, 2, "r15w"}, {RDI, 1, "dil"},
		{XMM0, 16, "xmm0"}, {XMM15, 16, "xmm15"}, {AH, 1, "ah"}, {BH, 1, "bh"},
	}
	for _, c := range cases {
		if got := c.r.Name(c.size); got != c.want {
			t.Errorf("Name(%d,%d) = %q, want %q", c.r, c.size, got, c.want)
		}
	}
}

func TestCondNegate(t *testing.T) {
	pairs := map[Cond]Cond{CondE: CondNE, CondL: CondGE, CondB: CondAE, CondS: CondNS}
	for c, want := range pairs {
		if c.Negate() != want {
			t.Errorf("%v.Negate() = %v, want %v", c, c.Negate(), want)
		}
		if c.Negate().Negate() != c {
			t.Errorf("double negate of %v", c)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: SUB, Dst: R64(RAX), Src: Imm(1, 8)}, "sub rax, 1"},
		{Inst{Op: MOV, Dst: R32(RAX), Src: MemBD(4, RBP, -0xc)}, "mov eax, dword ptr [rbp - 0xc]"},
		{Inst{Op: ADDSD, Dst: X(XMM0), Src: X(XMM1)}, "addsd xmm0, xmm1"},
		{Inst{Op: MOVSD_X, Dst: X(XMM0), Src: MemBIS(8, RSI, RAX, 8, 0)}, "movsd xmm0, qword ptr [rsi + 8*rax]"},
		{Inst{Op: CMOVCC, Cond: CondL, Dst: R64(RAX), Src: R64(RSI)}, "cmovl rax, rsi"},
		{Inst{Op: RET}, "ret"},
		{Inst{Op: JCC, Cond: CondNE, Dst: Imm(0x400123, 8)}, "jne 0x400123"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
