package lift

import (
	"repro/internal/ir"
	"repro/internal/x86"
)

// setArithFlags computes the status flags of w for an add- or sub-family
// instruction, following Section III.D of the paper: zero/sign/carry via
// integer comparisons, overflow via the bitwise xor/and/slt pattern
// (Figure 6b), parity via the ctpop intrinsic, and auxiliary carry via
// bitwise operations. cin is the incoming carry of adc and sbb (res = a + b
// + cin or a - b - cin), nil for the others. A flag dead after the
// instruction gets no IR.
func (l *Lifter) setArithFlags(s *state, w x86.FlagSet, isSub bool, a, b, res, cin ir.Value) {
	ty := res.Type()
	zero := ir.Int(ty, 0)
	w &^= s.dead
	if w&x86.FlagZF != 0 {
		s.setFlag(fZF, l.b.ICmp(ir.PredEQ, res, zero))
	}
	if w&x86.FlagSF != 0 {
		s.setFlag(fSF, l.b.ICmp(ir.PredSLT, res, zero))
	}
	if w&x86.FlagCF != 0 {
		// With a carry in, an operand equal to the result (add) or to the
		// other operand (sub) carries out as well.
		x, y := res, a
		if isSub {
			x, y = a, b
		}
		cf := ir.Value(l.b.ICmp(ir.PredULT, x, y))
		if cin != nil {
			cf = l.b.Or(cf, l.b.And(cin, l.b.ICmp(ir.PredEQ, x, y)))
		}
		s.setFlag(fCF, cf)
	}
	if w&x86.FlagOF != 0 {
		var t1, t2 ir.Value
		if isSub {
			// OF = (a^b) & (a^res) has the sign bit set.
			t1, t2 = l.b.Xor(a, b), l.b.Xor(a, res)
		} else {
			// OF = ~(a^b) & (a^res) has the sign bit set.
			t1, t2 = l.b.Xor(a, res), l.b.Xor(b, res)
		}
		s.setFlag(fOF, l.b.ICmp(ir.PredSLT, l.b.And(t1, t2), zero))
	}
	if w&x86.FlagPF != 0 {
		s.setFlag(fPF, l.parityFlag(res))
	}
	if w&x86.FlagAF != 0 {
		// AF = bit 4 of a^b^res.
		ax := l.b.Xor(l.b.Xor(a, b), res)
		s.setFlag(fAF, l.b.ICmp(ir.PredNE, l.b.And(ax, ir.Int(ty, 0x10)), zero))
	}
	// The flag cache preserves the semantics of cmp/sub for later
	// conditions (Figure 6); other flag writers invalidate it.
	if isSub {
		s.fc = flagCache{valid: true, a: a, b: b}
	} else {
		s.fc = flagCache{}
	}
}

// setLogicFlags computes flags for and/or/xor/test: CF and OF are cleared.
// Because CF = OF = 0, every cmp-style condition over these flags is
// equivalent to comparing the result against zero, so the flag cache is
// seeded with (res, 0).
func (l *Lifter) setLogicFlags(s *state, res ir.Value) {
	zero := ir.Int(res.Type(), 0)
	l.setResultFlags(s, res)
	s.setFlag(fCF, ir.Bool(false))
	s.setFlag(fOF, ir.Bool(false))
	s.setFlag(fAF, ir.Bool(false))
	s.fc = flagCache{valid: true, a: res, b: zero}
}

// setMulFlags sets the flags of the truncating signed multiply res = a*b:
// CF and OF report that the product does not fit the width, ZF/SF/PF
// follow the result as the emulator sets them, and AF, which x86 leaves
// undefined, is undef. It invalidates the flag cache.
func (l *Lifter) setMulFlags(s *state, a, b, res ir.Value) {
	l.setResultFlags(s, res)
	if s.dead&(x86.FlagCF|x86.FlagOF) != x86.FlagCF|x86.FlagOF {
		var ov ir.Value
		if res.Type().Bits == 64 {
			ov = mulOverflow64(l.b, a, b)
		} else {
			full := l.b.Mul(l.b.SExt(a, ir.I64), l.b.SExt(b, ir.I64))
			ov = l.b.ICmp(ir.PredNE, l.b.SExt(res, ir.I64), full)
		}
		s.setFlag(fCF, ov)
		s.setFlag(fOF, ov)
	}
	s.setFlag(fAF, ir.UndefOf(ir.I1))
	s.fc = flagCache{}
}

// mulOverflow64 builds the i1 that the signed product of the i64 values x
// and y does not fit 64 bits. The IR has no widening multiply, so the
// unsigned high word comes from 32-bit partial products; less y for a
// negative x and x for a negative y, it is the signed high word, and the
// product fits when that is the sign of the low word.
func mulOverflow64(b *ir.Builder, x, y ir.Value) ir.Value {
	c32, c63, lo := ir.Int(ir.I64, 32), ir.Int(ir.I64, 63), ir.Int(ir.I64, 0xFFFFFFFF)
	x0, x1 := b.And(x, lo), b.LShr(x, c32)
	y0, y1 := b.And(y, lo), b.LShr(y, c32)
	p00, p01, p10 := b.Mul(x0, y0), b.Mul(x0, y1), b.Mul(x1, y0)
	mid := b.Add(b.Add(b.LShr(p00, c32), b.And(p01, lo)), b.And(p10, lo))
	hi := b.Add(b.Add(b.Mul(x1, y1), b.LShr(p01, c32)), b.Add(b.LShr(p10, c32), b.LShr(mid, c32)))
	hi = b.Sub(b.Sub(hi, b.And(b.AShr(x, c63), y)), b.And(b.AShr(y, c63), x))
	return b.ICmp(ir.PredNE, hi, b.AShr(b.Mul(x, y), c63))
}

// setResultFlags sets the live ones of ZF/SF/PF from a result.
func (l *Lifter) setResultFlags(s *state, res ir.Value) {
	zero := ir.Int(res.Type(), 0)
	if s.dead&x86.FlagZF == 0 {
		s.setFlag(fZF, l.b.ICmp(ir.PredEQ, res, zero))
	}
	if s.dead&x86.FlagSF == 0 {
		s.setFlag(fSF, l.b.ICmp(ir.PredSLT, res, zero))
	}
	if s.dead&x86.FlagPF == 0 {
		s.setFlag(fPF, l.parityFlag(res))
	}
}

// parityFlag computes PF: even parity of the low byte, via llvm.ctpop.i8.
func (l *Lifter) parityFlag(res ir.Value) ir.Value {
	b := res
	if res.Type() != ir.I8 {
		b = l.b.Trunc(res, ir.I8)
	}
	pop := l.b.Ctpop(b)
	lowbit := l.b.And(pop, ir.Int(ir.I8, 1))
	return l.b.ICmp(ir.PredEQ, lowbit, ir.Int(ir.I8, 0))
}

// cond reconstructs an x86 condition code as an i1 value. With a valid flag
// cache, signed and unsigned orderings become a single icmp on the original
// cmp operands — the optimization shown in Figure 6c. Without it, the
// condition is assembled from the individual flag values (Figure 6b).
func (l *Lifter) cond(s *state, c x86.Cond) ir.Value {
	if l.Opts.FlagCache && s.fc.valid {
		var p ir.Pred
		ok := true
		ptrOK := false // predicates that translate directly to pointer compares
		switch c {
		case x86.CondE:
			p, ptrOK = ir.PredEQ, true
		case x86.CondNE:
			p, ptrOK = ir.PredNE, true
		case x86.CondL:
			p = ir.PredSLT
		case x86.CondGE:
			p = ir.PredSGE
		case x86.CondLE:
			p = ir.PredSLE
		case x86.CondG:
			p = ir.PredSGT
		case x86.CondB:
			p, ptrOK = ir.PredULT, true
		case x86.CondAE:
			p, ptrOK = ir.PredUGE, true
		case x86.CondBE:
			p, ptrOK = ir.PredULE, true
		case x86.CondA:
			p, ptrOK = ir.PredUGT, true
		default:
			ok = false
		}
		if ok {
			if ptrOK && s.fc.aPtr != nil && s.fc.bPtr != nil {
				return l.b.ICmp(p, s.fc.aPtr, s.fc.bPtr)
			}
			return l.b.ICmp(p, s.fc.a, s.fc.b)
		}
	}
	flag := s.readFlag
	var v ir.Value
	switch c &^ 1 {
	case x86.CondO:
		v = flag(fOF)
	case x86.CondB:
		v = flag(fCF)
	case x86.CondE:
		v = flag(fZF)
	case x86.CondBE:
		v = l.b.Or(flag(fCF), flag(fZF))
	case x86.CondS:
		v = flag(fSF)
	case x86.CondP:
		v = flag(fPF)
	case x86.CondL:
		v = l.b.Xor(flag(fSF), flag(fOF))
	case x86.CondLE:
		v = l.b.Or(flag(fZF), l.b.Xor(flag(fSF), flag(fOF)))
	}
	if c&1 != 0 {
		v = l.b.Xor(v, ir.Bool(true))
	}
	return v
}

// setComiFlags models comisd/ucomisd: ZF/PF/CF encode the floating
// comparison result; OF/SF/AF are cleared.
func (l *Lifter) setComiFlags(s *state, a, b ir.Value) {
	uno := l.b.FCmp(ir.PredUNO, a, b)
	oeq := l.b.FCmp(ir.PredOEQ, a, b)
	olt := l.b.FCmp(ir.PredOLT, a, b)
	s.setFlag(fZF, l.b.Or(uno, oeq))
	s.setFlag(fCF, l.b.Or(uno, olt))
	s.setFlag(fPF, uno)
	s.setFlag(fOF, ir.Bool(false))
	s.setFlag(fSF, ir.Bool(false))
	s.setFlag(fAF, ir.Bool(false))
	s.fc = flagCache{}
}
