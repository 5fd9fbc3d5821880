package x86

// FlagSet is a set of the six status flags: bit i is flag i in the order
// CF, PF, AF, ZF, SF, OF.
type FlagSet uint8

// Status flags.
const (
	FlagCF FlagSet = 1 << iota
	FlagPF
	FlagAF
	FlagZF
	FlagSF
	FlagOF

	AllFlags FlagSet = 1<<iota - 1
)

// Reads returns the flags condition c tests.
func (c Cond) Reads() FlagSet {
	switch c &^ 1 {
	case CondO:
		return FlagOF
	case CondB:
		return FlagCF
	case CondE:
		return FlagZF
	case CondBE:
		return FlagCF | FlagZF
	case CondS:
		return FlagSF
	case CondP:
		return FlagPF
	case CondL:
		return FlagSF | FlagOF
	}
	return FlagZF | FlagSF | FlagOF // CondLE
}

// flagOps is the flag table for every opcode whose effect does not depend on
// a condition code or a shift count: the flags it reads and the flags it
// always writes. A flag x86 leaves undefined counts as written. Opcodes
// missing here neither read nor write a flag; ret reads none (SysV ABI), and
// a call writes all six, so none is live across it.
var flagOps = [OpCount]struct{ read, written FlagSet }{
	ADD: {0, AllFlags}, SUB: {0, AllFlags}, CMP: {0, AllFlags}, NEG: {0, AllFlags},
	ADC: {FlagCF, AllFlags}, SBB: {FlagCF, AllFlags},
	AND: {0, AllFlags}, OR: {0, AllFlags}, XOR: {0, AllFlags}, TEST: {0, AllFlags},
	INC: {0, AllFlags &^ FlagCF}, DEC: {0, AllFlags &^ FlagCF},
	IMUL: {0, AllFlags}, IMUL3: {0, AllFlags}, MUL: {0, AllFlags},
	DIV: {0, AllFlags}, IDIV: {0, AllFlags}, POPCNT: {0, AllFlags},
	STC: {0, FlagCF}, CLC: {0, FlagCF},
	CALL: {0, AllFlags}, CALLIndirect: {0, AllFlags},
	COMISD: {0, AllFlags}, UCOMISD: {0, AllFlags}, COMISS: {0, AllFlags}, UCOMISS: {0, AllFlags},
}

// shiftFlags are the flags a shift by a non-zero count can define: CF is the
// last bit shifted out, OF is defined for a count of 1, and ZF/SF/PF follow
// the result. AF is left as it was.
const shiftFlags = FlagCF | FlagPF | FlagZF | FlagSF | FlagOF

// FlagEffects returns the flags the instruction reads and the flags it
// always writes. Jcc, SETcc and CMOVcc read the flags of their condition.
// A shift or rotate writes no flag for an immediate count that masks to 0,
// and a count in CL lists the flags it may write as read as well, because a
// zero count passes them through. Rotates write CF and OF only.
func (in *Inst) FlagEffects() (read, written FlagSet) {
	switch in.Op {
	case JCC, SETCC, CMOVCC:
		return in.Cond.Reads(), 0
	case SHL, SHR, SAR, ROL, ROR:
		w := shiftFlags
		if in.Op == ROL || in.Op == ROR {
			w = FlagCF | FlagOF
		}
		if in.Src.Kind != KImm {
			return w, w
		}
		switch n := in.ShiftCount(); {
		case n == 0:
			return 0, 0
		case n != 1 && w == shiftFlags:
			return 0, w &^ FlagOF
		}
		return 0, w
	}
	e := flagOps[in.Op]
	return e.read, e.written
}

// ShiftCount returns the immediate count of a shift or rotate masked as the
// hardware masks it: to 6 bits for a 64-bit operand, to 5 bits otherwise.
func (in *Inst) ShiftCount() uint64 {
	if in.Dst.Size == 8 {
		return uint64(in.Src.Imm) & 63
	}
	return uint64(in.Src.Imm) & 31
}
