package lift

import (
	"repro/internal/abi"
	"repro/internal/ir"
	"repro/internal/x86"
)

// translate lowers one machine instruction into IR, updating the register
// state. Figure 5 of the paper shows representative translations; this is
// the full dispatch.
func (l *Lifter) translate(s *state, in *x86.Inst, sig abi.Signature) error {
	b := l.b
	switch in.Op {
	case x86.NOP, x86.ENDBR64:
		return nil
	case x86.STC:
		s.setFlag(fCF, ir.Bool(true))
		s.fc = flagCache{}
		return nil
	case x86.CLC:
		s.setFlag(fCF, ir.Bool(false))
		s.fc = flagCache{}
		return nil
	case x86.UD2:
		b.Unreachable()
		return nil

	case x86.MOV:
		if in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KImm {
			v := ir.Int(ir.IntType(int(in.Dst.Size)*8), uint64(in.Src.Imm))
			l.writeIntOperand(s, in, in.Dst, v, nil)
			return nil
		}
		// Register-to-register 64-bit moves preserve the pointer facet.
		if in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg && in.Dst.Size == 8 &&
			!in.Src.Reg.IsHighByte() {
			var ptr ir.Value
			if p, ok := s.gprFacets(in.Src.Reg)[FPtr]; ok {
				ptr = p
			}
			v := l.readGPRFacet(s, in.Src.Reg, FI64)
			l.writeGPR(s, in.Dst.Reg, 8, v, ptr)
			return nil
		}
		v := l.readIntOperand(s, in, in.Src)
		l.writeIntOperand(s, in, in.Dst, v, nil)
		return nil

	case x86.MOVZX:
		v := l.readIntOperand(s, in, in.Src)
		l.writeGPR(s, in.Dst.Reg, in.Dst.Size, b.ZExt(v, ir.IntType(int(in.Dst.Size)*8)), nil)
		return nil
	case x86.MOVSX, x86.MOVSXD:
		v := l.readIntOperand(s, in, in.Src)
		l.writeGPR(s, in.Dst.Reg, in.Dst.Size, b.SExt(v, ir.IntType(int(in.Dst.Size)*8)), nil)
		return nil

	case x86.LEA:
		if in.Dst.Size == 8 && l.Opts.UseGEP && in.Src.Mem.Seg == x86.SegNone {
			ptr := l.memAddr(s, in, in.Src)
			iv := b.PtrToInt(ptr, ir.I64)
			l.writeGPR(s, in.Dst.Reg, 8, iv, ptr)
			return nil
		}
		iv := l.addrInt(s, in.Src.Mem)
		if in.Dst.Size != 8 {
			iv = b.Trunc(iv, ir.IntType(int(in.Dst.Size)*8))
		}
		l.writeGPR(s, in.Dst.Reg, in.Dst.Size, iv, nil)
		return nil

	case x86.ADD, x86.SUB, x86.CMP:
		a := l.readIntOperand(s, in, in.Dst)
		c := l.readIntOperand(s, in, in.Src)
		c = l.matchWidth(c, a.Type())
		var res ir.Value
		isSub := in.Op != x86.ADD
		if isSub {
			res = b.Sub(a, c)
		} else {
			res = b.Add(a, c)
		}
		l.setArithFlags(s, x86.AllFlags, isSub, a, c, res, nil)
		if in.Op == x86.CMP {
			// Record pointer facets of both operands so equality/unsigned
			// conditions compare pointers (one induction chain, not two).
			if in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg &&
				in.Dst.Size == 8 && in.Src.Size == 8 {
				if ap, ok := s.gprFacets(in.Dst.Reg)[FPtr]; ok {
					if bp, ok2 := s.gprFacets(in.Src.Reg)[FPtr]; ok2 {
						s.fc.aPtr, s.fc.bPtr = ap, bp
					}
				}
			}
			return nil
		}
		// Pointer facet propagation for 64-bit register destinations
		// (Section III.C: add/lea can set both facets).
		var ptr ir.Value
		if in.Dst.Kind == x86.KReg && in.Dst.Size == 8 && l.Opts.UseGEP {
			if base, ok := s.gprFacets(in.Dst.Reg)[FPtr]; ok {
				off := c
				if isSub {
					off = b.Sub(ir.Int(ir.I64, 0), c)
				}
				ptr = b.GEP(ir.I8, base, off)
			}
		}
		l.writeIntOperand(s, in, in.Dst, res, ptr)
		return nil

	case x86.ADC, x86.SBB:
		a := l.readIntOperand(s, in, in.Dst)
		c := l.matchWidth(l.readIntOperand(s, in, in.Src), a.Type())
		cin := s.readFlag(fCF)
		carry := b.ZExt(cin, a.Type())
		var res ir.Value
		isSub := in.Op == x86.SBB
		if isSub {
			res = b.Sub(b.Sub(a, c), carry)
		} else {
			res = b.Add(b.Add(a, c), carry)
		}
		l.setArithFlags(s, x86.AllFlags, isSub, a, c, res, cin)
		s.fc = flagCache{} // the carry in is not in the cached operands
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil

	case x86.AND, x86.OR, x86.XOR, x86.TEST:
		// xor r, r is the canonical zero idiom.
		if in.Op == x86.XOR && in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg &&
			in.Dst.Reg == in.Src.Reg {
			zero := ir.Int(ir.IntType(int(in.Dst.Size)*8), 0)
			l.setLogicFlags(s, zero)
			l.writeIntOperand(s, in, in.Dst, zero, nil)
			return nil
		}
		a := l.readIntOperand(s, in, in.Dst)
		c := l.matchWidth(l.readIntOperand(s, in, in.Src), a.Type())
		var res ir.Value
		switch in.Op {
		case x86.AND, x86.TEST:
			res = b.And(a, c)
		case x86.OR:
			res = b.Or(a, c)
		case x86.XOR:
			res = b.Xor(a, c)
		}
		l.setLogicFlags(s, res)
		if in.Op != x86.TEST {
			l.writeIntOperand(s, in, in.Dst, res, nil)
		}
		return nil

	case x86.NOT:
		a := l.readIntOperand(s, in, in.Dst)
		res := b.Xor(a, ir.Int(a.Type(), ^uint64(0)))
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil
	case x86.NEG:
		a := l.readIntOperand(s, in, in.Dst)
		res := b.Sub(ir.Int(a.Type(), 0), a)
		l.setArithFlags(s, x86.AllFlags, true, ir.Int(a.Type(), 0), a, res, nil)
		s.fc = flagCache{} // CF differs from plain sub semantics
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil
	case x86.INC, x86.DEC:
		// Like an add or sub of 1, but CF keeps its incoming value.
		a := l.readIntOperand(s, in, in.Dst)
		one := ir.Int(a.Type(), 1)
		isSub := in.Op == x86.DEC
		var res ir.Value
		if isSub {
			res = b.Sub(a, one)
		} else {
			res = b.Add(a, one)
		}
		l.setArithFlags(s, x86.AllFlags&^x86.FlagCF, isSub, a, one, res, nil)
		s.fc = flagCache{}
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil

	case x86.IMUL:
		a := l.readIntOperand(s, in, in.Dst)
		c := l.matchWidth(l.readIntOperand(s, in, in.Src), a.Type())
		res := b.Mul(a, c)
		l.setMulFlags(s, a, c, res)
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil
	case x86.IMUL3:
		c := l.readIntOperand(s, in, in.Src)
		imm := ir.Int(c.Type(), uint64(in.Src2.Imm))
		res := b.Mul(c, imm)
		l.setMulFlags(s, c, imm, res)
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil
	case x86.MUL:
		return facetErr(in, "widening multiply is not supported")
	case x86.IDIV:
		// Supported in the common cqo/cdq-extended form: quotient in RAX,
		// remainder in RDX.
		ty := ir.IntType(int(in.Dst.Size) * 8)
		den := l.readIntOperand(s, in, in.Dst)
		num := l.readGPRFacet(s, x86.RAX, gprFacetOfSize(in.Dst.Size))
		q := b.SDiv(num, den)
		r := b.SRem(num, den)
		l.writeGPR(s, x86.RAX, in.Dst.Size, q, nil)
		l.writeGPR(s, x86.RDX, in.Dst.Size, r, nil)
		s.setFlagsUndef()
		_ = ty
		return nil
	case x86.DIV:
		den := l.readIntOperand(s, in, in.Dst)
		num := l.readGPRFacet(s, x86.RAX, gprFacetOfSize(in.Dst.Size))
		q := b.UDiv(num, den)
		r := b.URem(num, den)
		l.writeGPR(s, x86.RAX, in.Dst.Size, q, nil)
		l.writeGPR(s, x86.RDX, in.Dst.Size, r, nil)
		s.setFlagsUndef()
		return nil

	case x86.CQO:
		v := l.readGPRFacet(s, x86.RAX, FI64)
		l.writeGPR(s, x86.RDX, 8, b.AShr(v, ir.Int(ir.I64, 63)), nil)
		return nil
	case x86.CDQ:
		v := l.readGPRFacet(s, x86.RAX, FI32)
		l.writeGPR(s, x86.RDX, 4, b.AShr(v, ir.Int(ir.I32, 31)), nil)
		return nil
	case x86.CDQE:
		v := l.readGPRFacet(s, x86.RAX, FI32)
		l.writeGPR(s, x86.RAX, 8, b.SExt(v, ir.I64), nil)
		return nil

	case x86.SHL, x86.SHR, x86.SAR:
		return l.translateShift(s, in)
	case x86.ROL, x86.ROR:
		if in.Src.Kind != x86.KImm {
			return facetErr(in, "variable rotate is not supported")
		}
		a := l.readIntOperand(s, in, in.Dst)
		ty := a.Type()
		bits := uint64(ty.Bits)
		cnt := in.ShiftCount()
		res := a
		if n := cnt % bits; n != 0 && in.Op == x86.ROL {
			res = b.Or(b.Shl(a, ir.Int(ty, n)), b.LShr(a, ir.Int(ty, bits-n)))
		} else if n != 0 {
			res = b.Or(b.LShr(a, ir.Int(ty, n)), b.Shl(a, ir.Int(ty, bits-n)))
		}
		if cnt != 0 {
			// CF is the bit rotated into the end: bit 0 for rol, the top
			// bit for ror. OF is the top bit XOR the bit beside it in the
			// rotation (bit 0 for rol, the next-to-top bit for ror), the
			// emulator's value at every count. ZF, SF, PF and AF keep
			// their values.
			live, zero := (x86.FlagCF|x86.FlagOF)&^s.dead, ir.Int(ty, 0)
			if live&x86.FlagCF != 0 && in.Op == x86.ROL {
				s.setFlag(fCF, b.ICmp(ir.PredNE, b.And(res, ir.Int(ty, 1)), zero))
			} else if live&x86.FlagCF != 0 {
				s.setFlag(fCF, b.ICmp(ir.PredSLT, res, zero))
			}
			if live&x86.FlagOF != 0 {
				side := bits - 1
				if in.Op == x86.ROR {
					side = 1
				}
				s.setFlag(fOF, b.ICmp(ir.PredSLT, b.Xor(res, b.Shl(res, ir.Int(ty, side))), zero))
			}
			s.fc = flagCache{}
		}
		l.writeIntOperand(s, in, in.Dst, res, nil)
		return nil

	case x86.PUSH:
		v := l.readIntOperand(s, in, withSize(in.Dst, 8))
		rsp := l.readGPRFacet(s, x86.RSP, FPtr)
		newSP := b.GEP(ir.I8, rsp, ir.Int(ir.I64, ^uint64(7))) // -8
		slot := b.Bitcast(newSP, ir.PtrTo(ir.I64))
		b.Store(v, slot)
		l.writeGPR(s, x86.RSP, 8, b.PtrToInt(newSP, ir.I64), newSP)
		return nil
	case x86.POP:
		rsp := l.readGPRFacet(s, x86.RSP, FPtr)
		slot := b.Bitcast(rsp, ir.PtrTo(ir.I64))
		v := b.Load(ir.I64, slot)
		newSP := b.GEP(ir.I8, rsp, ir.Int(ir.I64, 8))
		l.writeGPR(s, x86.RSP, 8, b.PtrToInt(newSP, ir.I64), newSP)
		l.writeIntOperand(s, in, in.Dst, v, nil)
		return nil

	case x86.CALL:
		return l.translateCall(s, in)
	case x86.CALLIndirect, x86.JMPIndirect:
		return facetErr(in, "indirect control flow is not supported")

	case x86.RET:
		switch sig.Ret {
		case abi.ClassF64:
			b.Ret(l.readXMMFacet(s, x86.XMM0, FF64))
		case abi.ClassPtr:
			b.Ret(l.readGPRFacet(s, x86.RAX, FPtr))
		case abi.ClassInt:
			b.Ret(l.readGPRFacet(s, x86.RAX, FI64))
		default:
			b.Ret(nil)
		}
		return nil

	case x86.JMP:
		t, ok := l.blockIR[uint64(in.Dst.Imm)]
		if !ok {
			return facetErr(in, "jump outside function")
		}
		b.Br(t)
		return nil
	case x86.JCC:
		t, ok := l.blockIR[uint64(in.Dst.Imm)]
		if !ok {
			return facetErr(in, "jump outside function")
		}
		fall, ok := l.blockIR[in.Addr+uint64(in.Len)]
		if !ok {
			return facetErr(in, "missing fall-through block")
		}
		b.CondBr(l.cond(s, in.Cond), t, fall)
		return nil
	case x86.CMOVCC:
		c := l.cond(s, in.Cond)
		v := l.readIntOperand(s, in, in.Src)
		old := l.readGPRFacet(s, in.Dst.Reg, gprFacetOfSize(in.Dst.Size))
		l.writeGPR(s, in.Dst.Reg, in.Dst.Size, b.Select(c, v, old), nil)
		return nil
	case x86.SETCC:
		c := l.cond(s, in.Cond)
		l.writeIntOperand(s, in, in.Dst, b.ZExt(c, ir.I8), nil)
		return nil

	case x86.XCHG:
		if in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg {
			a := l.readGPRFacet(s, in.Dst.Reg, gprFacetOfSize(in.Dst.Size))
			c := l.readGPRFacet(s, in.Src.Reg, gprFacetOfSize(in.Src.Size))
			l.writeGPR(s, in.Dst.Reg, in.Dst.Size, c, nil)
			l.writeGPR(s, in.Src.Reg, in.Src.Size, a, nil)
			return nil
		}
		return facetErr(in, "xchg with memory is not supported")
	}
	return l.translateSSE(s, in)
}

// translateShift lowers shl, shr and sar. The count is masked as the
// hardware masks it. A non-zero count defines CF as the last bit shifted
// out, OF when it is 1 and ZF/SF/PF from the result; a zero count changes no
// flag. A count in CL is known only at run time, so each live flag selects
// between its old value and its new one.
func (l *Lifter) translateShift(s *state, in *x86.Inst) error {
	b := l.b
	a := l.readIntOperand(s, in, in.Dst)
	ty := a.Type()
	bits := uint64(ty.Bits)
	imm := in.Src.Kind == x86.KImm
	n := in.ShiftCount()
	if imm && n == 0 {
		l.writeIntOperand(s, in, in.Dst, a, nil)
		return nil
	}
	// The IR leaves a shift by the operand width or more undefined, and a
	// masked count reaches it for 8- and 16-bit operands: shift those in
	// i32.
	widen := bits < 32 && (!imm || n >= bits)
	wty, aw := ty, a
	if widen && in.Op == x86.SAR {
		wty, aw = ir.I32, b.SExt(a, ir.I32)
	} else if widen {
		wty, aw = ir.I32, b.ZExt(a, ir.I32)
	}
	mask := ir.Int(wty, uint64(wty.Bits-1))
	var cnt ir.Value = ir.Int(wty, n)
	if !imm {
		cnt = b.And(b.ZExt(l.readGPRFacet(s, x86.RCX, FI8), wty), mask)
	}
	var resW ir.Value
	switch in.Op {
	case x86.SHL:
		resW = b.Shl(aw, cnt)
	case x86.SHR:
		resW = b.LShr(aw, cnt)
	default:
		resW = b.AShr(aw, cnt)
	}
	res := resW
	if widen {
		res = b.Trunc(resW, ty)
	}

	_, written := in.FlagEffects()
	live := written &^ s.dead
	var keep ir.Value // a CL count of 0 keeps every flag
	if !imm && live != 0 {
		keep = b.ICmp(ir.PredEQ, cnt, ir.Int(wty, 0))
	}
	set := func(i int, v ir.Value) {
		if keep != nil {
			v = b.Select(keep, s.readFlag(i), v)
		}
		s.setFlag(i, v)
	}
	zero := ir.Int(ty, 0)
	if live&x86.FlagZF != 0 {
		set(fZF, b.ICmp(ir.PredEQ, res, zero))
	}
	if live&x86.FlagSF != 0 {
		set(fSF, b.ICmp(ir.PredSLT, res, zero))
	}
	if live&x86.FlagPF != 0 {
		set(fPF, l.parityFlag(res))
	}
	if live&x86.FlagCF != 0 {
		// out holds the last bit shifted out in bit 0. A CL count of 0
		// selects the old CF, and masking keeps its shift amount in range.
		var out ir.Value
		switch {
		case in.Op == x86.SHL && widen:
			out = b.LShr(resW, ir.Int(wty, bits))
		case in.Op == x86.SHL && imm:
			out = b.LShr(a, ir.Int(ty, bits-n))
		case in.Op == x86.SHL:
			out = b.LShr(a, b.And(b.Sub(ir.Int(ty, bits), cnt), mask))
		case imm:
			out = b.LShr(aw, ir.Int(wty, n-1))
		default:
			out = b.LShr(aw, b.And(b.Sub(cnt, ir.Int(wty, 1)), mask))
		}
		set(fCF, b.ICmp(ir.PredNE, b.And(out, ir.Int(wty, 1)), ir.Int(wty, 0)))
	}
	if live&x86.FlagOF != 0 {
		// OF = the sign bit changed; a CL count other than 1 keeps it.
		of := b.ICmp(ir.PredSLT, b.Xor(res, a), zero)
		if !imm {
			of = b.Select(b.ICmp(ir.PredEQ, cnt, ir.Int(wty, 1)), of, s.readFlag(fOF))
		}
		s.setFlag(fOF, of)
	}
	s.fc = flagCache{}
	l.writeIntOperand(s, in, in.Dst, res, nil)
	return nil
}

// matchWidth adapts an immediate operand's type to the computation type
// (x86 sign-extends 8-bit immediates to the operand size).
func (l *Lifter) matchWidth(v ir.Value, ty *ir.Type) ir.Value {
	if v.Type().Equal(ty) {
		return v
	}
	if c, ok := v.(*ir.ConstInt); ok {
		return ir.Int(ty, uint64(int64(c.V)))
	}
	if v.Type().Bits < ty.Bits {
		return l.b.SExt(v, ty)
	}
	return l.b.Trunc(v, ty)
}

func withSize(o x86.Operand, size uint8) x86.Operand {
	if o.Kind == x86.KImm || o.Kind == x86.KReg || o.Kind == x86.KMem {
		o.Size = size
	}
	return o
}

// translateCall lowers a direct call (Section III.B): the target must be a
// declared function; argument registers are read per its signature; caller-
// saved state is clobbered afterwards.
func (l *Lifter) translateCall(s *state, in *x86.Inst) error {
	target := uint64(in.Dst.Imm)
	callee, ok := l.Funcs[target]
	if !ok {
		return facetErr(in, "call to unknown function %#x (declare it first)", target)
	}
	b := l.b
	var args []ir.Value
	for _, loc := range callee.Sig.Locations() {
		if loc.IsFP {
			args = append(args, l.readXMMFacet(s, loc.Reg, FF64))
			continue
		}
		switch callee.Sig.Params[loc.Index] {
		case abi.ClassPtr:
			args = append(args, l.readGPRFacet(s, loc.Reg, FPtr))
		default:
			args = append(args, l.readGPRFacet(s, loc.Reg, FI64))
		}
	}
	call := b.Call(callee.Fn, args...)

	// Clobber caller-saved registers and all vector registers.
	for _, r := range abi.CallerSaved {
		s.defGPR(r)
	}
	for x := 0; x < 16; x++ {
		s.defXMM(x)
	}
	s.setFlagsUndef()

	switch callee.Sig.Ret {
	case abi.ClassInt:
		l.writeGPR(s, x86.RAX, 8, call, nil)
	case abi.ClassPtr:
		l.writeGPR(s, x86.RAX, 8, b.PtrToInt(call, ir.I64), call)
	case abi.ClassF64:
		l.writeXMMScalarF64(s, x86.XMM0, call, false)
	}
	return nil
}
