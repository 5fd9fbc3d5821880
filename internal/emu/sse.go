package emu

import (
	"math"

	"repro/internal/x86"
)

// The SSE kernel: the one definition of what each SSE instruction computes
// from concrete values, as alu.go is for the integer instructions. The
// interpreter reads an instruction's operands itself and calls its kernel
// function through sseOp; the block engine resolves the same operands at
// translate time and binds the same function, so the two cannot disagree
// about a lane, a flag, a fault or a cycle.

// sseFn is one opcode's definition. d is the destination's value: an XMM
// destination's register, or zero for a GP or memory destination and for a
// load that zeroes the lanes it does not fill. s is the source's value: a
// whole XMM register, a GP register's facet, or the bytes a memory operand
// loads, zero-extended. imm is the immediate byte and f the flags, which
// only (u)comis* change. It returns the destination's new value; a GP or
// memory destination takes its low bytes.
type sseFn func(d, s XMMReg, imm uint8, f *Flags) XMMReg

// sseMem is the rule an SSE instruction's memory operand follows beyond
// its width.
type sseMem uint8

const (
	sseMemPlain sseMem = iota
	// sseAligned: movap*/movdqa fault unless the address is 16-byte aligned.
	sseAligned
	// sseZeroing: the load forms of movsd and movss clear the lanes of the
	// destination they do not load.
	sseZeroing
)

// sseKernel is an SSE instruction's definition plus the facts its operand
// handling needs. Where the result goes, an XMM register, a GP register or
// memory, the engines read off the destination operand.
type sseKernel struct {
	fn sseFn
	// width is the byte width of the instruction's memory operand, source or
	// destination.
	width int
	mem   sseMem
	// alt is the entry of the opcode's other form, for the four opcodes whose
	// meaning depends on an operand: movhpd with a memory destination (it
	// stores the high lane), and cvtsi2sd, cvtsi2ss and cvttsd2si with a
	// 4-byte integer operand.
	alt *sseKernel
}

// sseOp returns the kernel entry of in's opcode, or nil for an opcode
// outside the kernel. It is a table read, plus one operand test for the
// opcodes with an alt form: a memory destination or a 4-byte operand
// selects it (no other operand of these four opcodes is 4 bytes wide).
func sseOp(in *x86.Inst) *sseKernel {
	if int(in.Op) >= len(sseTable) {
		return nil
	}
	k := &sseTable[in.Op]
	if k.alt != nil && (in.Dst.Kind == x86.KMem || in.Src.Size == 4 || in.Dst.Size == 4) {
		k = k.alt
	}
	if k.fn == nil {
		return nil
	}
	return k
}

// sseTable is the kernel's operand table, indexed by opcode.
var sseTable = [...]sseKernel{
	x86.MOVSD_X: {fn: sseMovLo64, width: 8, mem: sseZeroing},
	x86.MOVSS_X: {fn: sseMovLo32, width: 4, mem: sseZeroing},
	x86.MOVAPS:  {fn: sseMov, width: 16, mem: sseAligned},
	x86.MOVAPD:  {fn: sseMov, width: 16, mem: sseAligned},
	x86.MOVDQA:  {fn: sseMov, width: 16, mem: sseAligned},
	x86.MOVUPS:  {fn: sseMov, width: 16},
	x86.MOVUPD:  {fn: sseMov, width: 16},
	x86.MOVDQU:  {fn: sseMov, width: 16},
	x86.MOVQ:    {fn: sseMovQ, width: 8},
	x86.MOVQGP:  {fn: sseMovQ, width: 8},
	x86.MOVD:    {fn: sseMovD, width: 4},
	x86.MOVHPD:  {fn: sseMovHi, width: 8, alt: &sseKernel{fn: sseHiToLo, width: 8}},
	x86.MOVLPD:  {fn: sseMovLo64, width: 8},

	x86.ADDSD:  {fn: sseAddsd, width: 8},
	x86.SUBSD:  {fn: sseSubsd, width: 8},
	x86.MULSD:  {fn: sseMulsd, width: 8},
	x86.DIVSD:  {fn: sseDivsd, width: 8},
	x86.MINSD:  {fn: sseMinsd, width: 8},
	x86.MAXSD:  {fn: sseMaxsd, width: 8},
	x86.SQRTSD: {fn: sseSqrtsd, width: 8},
	x86.ADDSS:  {fn: sseAddss, width: 4},
	x86.SUBSS:  {fn: sseSubss, width: 4},
	x86.MULSS:  {fn: sseMulss, width: 4},
	x86.DIVSS:  {fn: sseDivss, width: 4},

	x86.ADDPD: {fn: sseAddpd, width: 16},
	x86.SUBPD: {fn: sseSubpd, width: 16},
	x86.MULPD: {fn: sseMulpd, width: 16},
	x86.DIVPD: {fn: sseDivpd, width: 16},
	x86.ADDPS: {fn: sseAddps, width: 16},
	x86.SUBPS: {fn: sseSubps, width: 16},
	x86.MULPS: {fn: sseMulps, width: 16},
	x86.DIVPS: {fn: sseDivps, width: 16},

	x86.XORPS: {fn: sseXor, width: 16},
	x86.XORPD: {fn: sseXor, width: 16},
	x86.PXOR:  {fn: sseXor, width: 16},
	x86.ANDPS: {fn: sseAnd, width: 16},
	x86.ANDPD: {fn: sseAnd, width: 16},
	x86.PAND:  {fn: sseAnd, width: 16},
	x86.ORPS:  {fn: sseOr, width: 16},
	x86.ORPD:  {fn: sseOr, width: 16},
	x86.POR:   {fn: sseOr, width: 16},
	x86.PADDQ: {fn: ssePaddq, width: 16},
	x86.PSUBQ: {fn: ssePsubq, width: 16},
	x86.PADDD: {fn: ssePaddd, width: 16},
	x86.PSUBD: {fn: ssePsubd, width: 16},

	x86.UNPCKLPD:   {fn: sseUnpcklpd, width: 16},
	x86.PUNPCKLQDQ: {fn: sseUnpcklpd, width: 16},
	x86.UNPCKHPD:   {fn: sseUnpckhpd, width: 16},
	x86.UNPCKLPS:   {fn: sseUnpcklps, width: 16},
	x86.SHUFPD:     {fn: sseShufpd, width: 16},
	x86.SHUFPS:     {fn: sseShufps, width: 16},
	x86.PSHUFD:     {fn: ssePshufd, width: 16},

	x86.CVTSI2SD:  {fn: sseCvtsi2sd64, width: 8, alt: &sseKernel{fn: sseCvtsi2sd32, width: 4}},
	x86.CVTSI2SS:  {fn: sseCvtsi2ss64, width: 8, alt: &sseKernel{fn: sseCvtsi2ss32, width: 4}},
	x86.CVTTSD2SI: {fn: sseCvttsd2si64, width: 8, alt: &sseKernel{fn: sseCvttsd2si32, width: 8}},
	x86.CVTSD2SS:  {fn: sseCvtsd2ss, width: 8},
	x86.CVTSS2SD:  {fn: sseCvtss2sd, width: 4},
	x86.COMISD:    {fn: sseComisd, width: 8},
	x86.UCOMISD:   {fn: sseComisd, width: 8},
	x86.COMISS:    {fn: sseComiss, width: 4},
	x86.UCOMISS:   {fn: sseComiss, width: 4},
	x86.MOVMSKPD:  {fn: sseMovmskpd}, // a register source only
}

// AddF64, SubF64, MulF64 and DivF64 are the double-precision arithmetic of
// ADDSD/SUBSD/MULSD/DIVSD and their packed forms. The SSE kernel and the
// trace VM call these four and nothing inlines them, so every engine
// executes the same compiled instruction: when both operands are NaN the
// result carries the payload of whichever the host instruction takes as
// destination, and a Go compiler that commuted an inlined a+b at one call
// site but not another would make the engines disagree. (Native traces
// order the operands themselves; TestTraceNativeFP's both-NaN rows compare
// them with these.)
//
//go:noinline
func AddF64(a, b float64) float64 { return a + b }

//go:noinline
func SubF64(a, b float64) float64 { return a - b }

//go:noinline
func MulF64(a, b float64) float64 { return a * b }

//go:noinline
func DivF64(a, b float64) float64 { return a / b }

// Moves. A move's result is its source, merged into the lanes of the
// destination it keeps.

func sseMov(_, s XMMReg, _ uint8, _ *Flags) XMMReg    { return s }
func sseMovQ(_, s XMMReg, _ uint8, _ *Flags) XMMReg   { return XMMReg{Lo: s.Lo} }
func sseMovD(_, s XMMReg, _ uint8, _ *Flags) XMMReg   { return XMMReg{Lo: s.Lo & 0xFFFFFFFF} }
func sseMovHi(d, s XMMReg, _ uint8, _ *Flags) XMMReg  { return XMMReg{Lo: d.Lo, Hi: s.Lo} }
func sseHiToLo(_, s XMMReg, _ uint8, _ *Flags) XMMReg { return XMMReg{Lo: s.Hi} }
func sseMovLo64(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return XMMReg{Lo: s.Lo, Hi: d.Hi}
}
func sseMovLo32(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return XMMReg{Lo: d.Lo&^0xFFFFFFFF | s.Lo&0xFFFFFFFF, Hi: d.Hi}
}

// Scalar arithmetic replaces the low lane and keeps the rest.

func withF64(d XMMReg, v float64) XMMReg { d.Lo = f64bits(v); return d }
func withF32(d XMMReg, v float32) XMMReg {
	d.Lo = d.Lo&^0xFFFFFFFF | uint64(f32bits(v))
	return d
}
func lo64(x XMMReg) float64 { return f64frombits(x.Lo) }
func lo32(x XMMReg) float32 { return f32frombits(uint32(x.Lo)) }

func sseAddsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF64(d, AddF64(lo64(d), lo64(s))) }
func sseSubsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF64(d, SubF64(lo64(d), lo64(s))) }
func sseMulsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF64(d, MulF64(lo64(d), lo64(s))) }
func sseDivsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF64(d, DivF64(lo64(d), lo64(s))) }
func sseSqrtsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return withF64(d, math.Sqrt(lo64(s)))
}

// sseMinsd and sseMaxsd return the destination only when it compares
// strictly less (greater): a NaN in either operand, or a tie of +0 and -0,
// yields the source, as x86 does.
func sseMinsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	if lo64(d) < lo64(s) {
		return d
	}
	return XMMReg{Lo: s.Lo, Hi: d.Hi}
}

func sseMaxsd(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	if lo64(d) > lo64(s) {
		return d
	}
	return XMMReg{Lo: s.Lo, Hi: d.Hi}
}

func sseAddss(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF32(d, lo32(d)+lo32(s)) }
func sseSubss(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF32(d, lo32(d)-lo32(s)) }
func sseMulss(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF32(d, lo32(d)*lo32(s)) }
func sseDivss(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF32(d, lo32(d)/lo32(s)) }

// Packed arithmetic applies the scalar operation lane by lane.

func packedF64(d, s XMMReg, op func(a, b float64) float64) XMMReg {
	return XMMReg{
		Lo: f64bits(op(f64frombits(d.Lo), f64frombits(s.Lo))),
		Hi: f64bits(op(f64frombits(d.Hi), f64frombits(s.Hi))),
	}
}

func packedF32(d, s XMMReg, op func(a, b float32) float32) XMMReg {
	dl, sl := d.Lanes32(), s.Lanes32()
	for i := range dl {
		dl[i] = f32bits(op(f32frombits(dl[i]), f32frombits(sl[i])))
	}
	return FromLanes32(dl)
}

func sseAddpd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return packedF64(d, s, AddF64) }
func sseSubpd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return packedF64(d, s, SubF64) }
func sseMulpd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return packedF64(d, s, MulF64) }
func sseDivpd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return packedF64(d, s, DivF64) }
func sseAddps(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return packedF32(d, s, func(a, b float32) float32 { return a + b })
}
func sseSubps(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return packedF32(d, s, func(a, b float32) float32 { return a - b })
}
func sseMulps(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return packedF32(d, s, func(a, b float32) float32 { return a * b })
}
func sseDivps(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return packedF32(d, s, func(a, b float32) float32 { return a / b })
}

// Bitwise and packed-integer operations.

func sseXor(d, s XMMReg, _ uint8, _ *Flags) XMMReg   { return XMMReg{Lo: d.Lo ^ s.Lo, Hi: d.Hi ^ s.Hi} }
func sseAnd(d, s XMMReg, _ uint8, _ *Flags) XMMReg   { return XMMReg{Lo: d.Lo & s.Lo, Hi: d.Hi & s.Hi} }
func sseOr(d, s XMMReg, _ uint8, _ *Flags) XMMReg    { return XMMReg{Lo: d.Lo | s.Lo, Hi: d.Hi | s.Hi} }
func ssePaddq(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return XMMReg{Lo: d.Lo + s.Lo, Hi: d.Hi + s.Hi} }
func ssePsubq(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return XMMReg{Lo: d.Lo - s.Lo, Hi: d.Hi - s.Hi} }
func ssePaddd(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	dl, sl := d.Lanes32(), s.Lanes32()
	return FromLanes32([4]uint32{dl[0] + sl[0], dl[1] + sl[1], dl[2] + sl[2], dl[3] + sl[3]})
}
func ssePsubd(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	dl, sl := d.Lanes32(), s.Lanes32()
	return FromLanes32([4]uint32{dl[0] - sl[0], dl[1] - sl[1], dl[2] - sl[2], dl[3] - sl[3]})
}

// Shuffles and unpacks.

func sseUnpcklpd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return XMMReg{Lo: d.Lo, Hi: s.Lo} }
func sseUnpckhpd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return XMMReg{Lo: d.Hi, Hi: s.Hi} }
func sseUnpcklps(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	dl, sl := d.Lanes32(), s.Lanes32()
	return FromLanes32([4]uint32{dl[0], sl[0], dl[1], sl[1]})
}

func sseShufpd(d, s XMMReg, sel uint8, _ *Flags) XMMReg {
	r := XMMReg{Lo: d.Lo, Hi: s.Lo}
	if sel&1 != 0 {
		r.Lo = d.Hi
	}
	if sel&2 != 0 {
		r.Hi = s.Hi
	}
	return r
}

func sseShufps(d, s XMMReg, sel uint8, _ *Flags) XMMReg {
	dl, sl := d.Lanes32(), s.Lanes32()
	return FromLanes32([4]uint32{dl[sel&3], dl[sel>>2&3], sl[sel>>4&3], sl[sel>>6&3]})
}

func ssePshufd(_, s XMMReg, sel uint8, _ *Flags) XMMReg {
	sl := s.Lanes32()
	return FromLanes32([4]uint32{sl[sel&3], sl[sel>>2&3], sl[sel>>4&3], sl[sel>>6&3]})
}

// Conversions. The integer side is 32 or 64 bits wide; sseOp picks the
// form.

func sseCvtsi2sd32(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return withF64(d, float64(int32(s.Lo)))
}
func sseCvtsi2sd64(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return withF64(d, float64(int64(s.Lo)))
}
func sseCvtsi2ss32(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return withF32(d, float32(int64(int32(s.Lo))))
}
func sseCvtsi2ss64(d, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return withF32(d, float32(int64(s.Lo)))
}
func sseCvtsd2ss(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF32(d, float32(lo64(s))) }
func sseCvtss2sd(d, s XMMReg, _ uint8, _ *Flags) XMMReg { return withF64(d, float64(lo32(s))) }

func sseCvttsd2si32(_, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return XMMReg{Lo: TruncF64(lo64(s), 4)}
}
func sseCvttsd2si64(_, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return XMMReg{Lo: TruncF64(lo64(s), 8)}
}

// TruncF64 is the conversion of cvttsd2si: v truncated toward zero to a
// signed integer of size bytes (4 or 8). A NaN, an infinity or a value
// outside the integer range gives the integer indefinite, the smallest
// integer of the size, as x86 does. The SSE kernel, the IR interpreter and
// the optimizer's constant folder all convert through it.
func TruncF64(v float64, size uint8) uint64 {
	if size == 8 {
		if v >= -0x1p63 && v < 0x1p63 {
			return uint64(int64(v))
		}
		return 1 << 63
	}
	if v > -0x1p31-1 && v < 0x1p31 {
		return uint64(uint32(int32(v)))
	}
	return 1 << 31
}

// Comparisons leave the destination alone and set the flags.

func sseComisd(d, s XMMReg, _ uint8, f *Flags) XMMReg { comi(f, lo64(d), lo64(s)); return d }
func sseComiss(d, s XMMReg, _ uint8, f *Flags) XMMReg {
	comi(f, float64(lo32(d)), float64(lo32(s)))
	return d
}

// comi sets ZF, PF and CF from an ordered or unordered comparison of a with
// b and clears OF, SF and AF (COMISD semantics).
func comi(f *Flags, a, b float64) {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		*f = Flags{ZF: true, PF: true, CF: true}
	case a > b:
		*f = Flags{}
	case a < b:
		*f = Flags{CF: true}
	default:
		*f = Flags{ZF: true}
	}
}

// sseMovmskpd gathers the sign bits of the two double lanes.
func sseMovmskpd(_, s XMMReg, _ uint8, _ *Flags) XMMReg {
	return XMMReg{Lo: s.Lo>>63 | s.Hi>>63<<1}
}
