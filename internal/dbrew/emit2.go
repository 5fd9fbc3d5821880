package dbrew

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/x86"
)

// exec processes a non-control-flow instruction: it is either evaluated away
// ("instructions simply disappear if all input parameters are known") or
// emitted with known operands replaced by immediates / materialized
// constants.
func (e *emitterState) exec(st *mstate, in *x86.Inst) error {
	if a, b, out, ok := emu.IntOperands(in); ok {
		return e.execInt(st, in, a, b, out)
	}
	switch in.Op {
	case x86.NOP, x86.ENDBR64:
		return nil

	case x86.MOV:
		return e.execMov(st, in)

	case x86.LEA:
		if addr, ok := e.addrKnown(st, in, in.Src.Mem); ok && in.Src.Mem.Seg == x86.SegNone {
			if st.writeKnown(in.Dst.Reg, in.Dst.Size, truncVal(addr, in.Dst.Size)) {
				e.rw.Stats.Eliminated++
				return nil
			}
		}
		return e.emitAdjusted(st, in)

	case x86.MUL, x86.IDIV, x86.DIV:
		// Emit with operands materialized; RAX/RDX become dynamic and the
		// flags are architecturally undefined afterwards (poisoned).
		if err := e.emitAdjusted(st, in); err != nil {
			return err
		}
		st.setDynamic(x86.RAX)
		st.setDynamic(x86.RDX)
		st.flags = flagsVal{}
		return nil

	case x86.XCHG:
		if in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg {
			a, aok := st.regKnown(in.Dst.Reg, in.Dst.Size)
			b, bok := st.regKnown(in.Src.Reg, in.Src.Size)
			if aok && bok && in.Dst.Size >= 4 {
				st.writeKnown(in.Dst.Reg, in.Dst.Size, b)
				st.writeKnown(in.Src.Reg, in.Src.Size, a)
				e.rw.Stats.Eliminated++
				return nil
			}
		}
		return e.emitAdjusted(st, in)

	case x86.CMOVCC:
		return e.execCMov(st, in)

	case x86.SETCC:
		if need := in.Cond.Reads(); st.flags.known&need == need {
			v := uint64(0)
			if emu.CondHoldsIn(emu.FlagState(st.flags.f), in.Cond) {
				v = 1
			}
			if in.Dst.Kind == x86.KReg {
				if st.writeKnown(in.Dst.Reg, 1, v) {
					e.rw.Stats.Eliminated++
					return nil
				}
				e.materialize(st, in.Dst.Reg.Parent())
				e.emit(x86.Inst{Op: x86.MOV, Dst: in.Dst, Src: x86.Imm(int64(v), 1)})
				st.setDynamic(in.Dst.Reg.Parent())
				return nil
			}
			adj, err := e.adjustMem(st, in, in.Dst)
			if err != nil {
				return err
			}
			e.emit(x86.Inst{Op: x86.MOV, Dst: adj, Src: x86.Imm(int64(v), 1)})
			return nil
		}
		return e.emitAdjusted(st, in)

	case x86.MOVSB, x86.STOSB, x86.REPMOVSB, x86.REPSTOSB:
		// String ops read RSI/RDI (plus RCX for rep, AL for stos)
		// implicitly, so the generic emit path would not notice abstractly
		// known inputs: materialize them, emit verbatim, and mark the
		// advanced registers dynamic. No flags are written.
		e.materialize(st, x86.RDI)
		if in.Op == x86.MOVSB || in.Op == x86.REPMOVSB {
			e.materialize(st, x86.RSI)
		} else {
			e.materialize(st, x86.RAX)
		}
		if in.Op == x86.REPMOVSB || in.Op == x86.REPSTOSB {
			e.materialize(st, x86.RCX)
		}
		e.emit(*in)
		st.setDynamic(x86.RDI)
		if in.Op == x86.MOVSB || in.Op == x86.REPMOVSB {
			st.setDynamic(x86.RSI)
		}
		if in.Op == x86.REPMOVSB || in.Op == x86.REPSTOSB {
			st.setDynamic(x86.RCX)
		}
		return nil

	case x86.PUSH:
		// Track the pushed abstract value so the matching pop restores it.
		if st.vstackOK {
			var rv regVal
			if v, ok := e.operandKnown(st, in, in.Dst); ok {
				rv = regVal{known: true, val: v}
			}
			st.vstack = append(st.vstack, rv)
		}
		if v, ok := e.operandKnown(st, in, in.Dst); ok {
			sv := int64(v)
			if sv >= -(1<<31) && sv < 1<<31 {
				e.emit(x86.Inst{Op: x86.PUSH, Dst: x86.Imm(sv, 8)})
				return nil
			}
		}
		return e.emitAdjusted(st, in)
	case x86.POP:
		var restored *regVal
		if st.vstackOK && len(st.vstack) > 0 {
			rv := st.vstack[len(st.vstack)-1]
			st.vstack = st.vstack[:len(st.vstack)-1]
			restored = &rv
		}
		if err := e.emitAdjusted(st, in); err != nil {
			return err
		}
		if restored != nil && restored.known && in.Dst.Kind == x86.KReg && in.Dst.Reg.IsGP() {
			// The emitted pop physically restored the value.
			st.gpr[in.Dst.Reg] = regVal{known: true, val: restored.val, mat: true}
		}
		return nil
	}

	// Everything else — the SSE subset and rarities — is emitted with
	// address folding and known-register materialization. DBrew performs no
	// floating-point specialization (Figure 8's visible overhead).
	return e.emitAdjusted(st, in)
}

func (e *emitterState) execMov(st *mstate, in *x86.Inst) error {
	v, known := e.operandKnown(st, in, in.Src)
	if known && in.Dst.Kind == x86.KReg && !in.Dst.Reg.IsHighByte() {
		if st.writeKnown(in.Dst.Reg, in.Dst.Size, truncVal(v, in.Dst.Size)) {
			e.rw.Stats.Eliminated++
			return nil
		}
	}
	if known && in.Dst.Kind == x86.KMem {
		// Store of a known value: use an immediate form when it fits.
		sv := signExtVal(v, in.Dst.Size)
		if in.Dst.Size < 8 || (sv >= -(1<<31) && sv < 1<<31) {
			adj, err := e.adjustMem(st, in, in.Dst)
			if err != nil {
				return err
			}
			e.emit(x86.Inst{Op: x86.MOV, Dst: adj, Src: x86.Imm(int64(truncVal(v, in.Dst.Size)), in.Dst.Size)})
			return nil
		}
	}
	return e.emitAdjusted(st, in)
}

// execInt evaluates an instruction of the integer kernel away when all its
// inputs, flags included, are known ("instructions simply disappear if all
// input parameters are known"), and emits it otherwise.
func (e *emitterState) execInt(st *mstate, in *x86.Inst, a, b, out x86.Operand) error {
	av, ok := e.operandKnown(st, in, a)
	bv, bok := uint64(0), true
	if b.Kind != x86.KNone {
		bv, bok = e.operandKnown(st, in, b)
	}
	// xor r, r and sub r, r are the canonical zero idioms: the result is
	// known regardless of the register's current contents.
	if (in.Op == x86.XOR || in.Op == x86.SUB) &&
		in.Dst.Kind == x86.KReg && in.Src.Kind == x86.KReg && in.Dst.Reg == in.Src.Reg {
		av, ok, bv, bok = 0, true, 0, true
	}
	if ok && bok {
		// A shift by CL has the flag effects of its count, now known.
		fx := *in
		if b.Kind == x86.KReg {
			fx.Src = x86.Imm(int64(bv), b.Size)
		}
		if read, _ := fx.FlagEffects(); read&^st.flags.known == 0 {
			f := emu.FlagState(st.flags.f)
			res, defined, write := emu.Int(in, av, bv, &f)
			switch {
			case !write, out.Kind == x86.KReg && st.writeKnown(out.Reg, out.Size, res):
				e.rw.Stats.Eliminated++
			case out.Kind == x86.KMem && fitsImm32(res, out.Size):
				// A known result stored to memory: the emitted mov leaves
				// the flags alone, so they stay known.
				adj, err := e.adjustMem(st, in, out)
				if err != nil {
					return err
				}
				e.emit(x86.Inst{Op: x86.MOV, Dst: adj, Src: x86.Imm(int64(truncVal(res, out.Size)), out.Size)})
			default:
				return e.emitAdjusted(st, in)
			}
			st.flags.fold(f, defined, flagWrites(&fx))
			return nil
		}
	}
	if in.Dst.Kind == x86.KNone {
		// CQO, CDQ and CDQE read and write RAX and RDX implicitly.
		e.materialize(st, a.Reg)
		defer st.setDynamic(out.Reg)
	}
	return e.emitAdjusted(st, in)
}

func (e *emitterState) execCMov(st *mstate, in *x86.Inst) error {
	if need := in.Cond.Reads(); st.flags.known&need == need {
		taken := emu.CondHoldsIn(emu.FlagState(st.flags.f), in.Cond)
		if !taken {
			// A 32-bit cmov still zeroes the upper half.
			if in.Dst.Size == 4 {
				if v, ok := st.regKnown(in.Dst.Reg, 4); ok {
					st.writeKnown(in.Dst.Reg, 4, v)
					e.rw.Stats.Eliminated++
					return nil
				}
				e.emit(x86.Inst{Op: x86.MOV, Dst: in.Dst, Src: x86.RegOp(in.Dst.Reg, 4)})
				st.setDynamic(in.Dst.Reg)
				return nil
			}
			e.rw.Stats.Eliminated++
			return nil
		}
		// Taken: behaves like mov dst, src.
		mv := x86.Inst{Op: x86.MOV, Dst: in.Dst, Src: in.Src, Addr: in.Addr, Len: in.Len}
		return e.execMov(st, &mv)
	}
	return e.emitAdjusted(st, in)
}

// adjustMem rewrites a memory operand: a fully known address becomes
// absolute when encodable; otherwise known base/index registers are
// materialized.
func (e *emitterState) adjustMem(st *mstate, in *x86.Inst, op x86.Operand) (x86.Operand, error) {
	if op.Mem.Seg != x86.SegNone {
		return op, nil
	}
	// An inlined call elides the return-address push, so a callee that
	// addresses its caller's frame through RSP would see every offset
	// shifted by 8. Refuse rather than emit silently wrong code — the
	// rewrite falls back to the original function (stack-passed
	// struct-by-value ABI shapes classify as fallback, not miscompile).
	if len(st.retStack) > 0 && (op.Mem.Base == x86.RSP || op.Mem.Index == x86.RSP) {
		return op, fmt.Errorf("%w: rsp-relative memory access inside inlined call at %#x", ErrUnsupported, in.Addr)
	}
	if addr, ok := e.addrKnown(st, in, op.Mem); ok {
		if addr < 1<<31 {
			return x86.MemAbs(op.Size, int32(addr)), nil
		}
	}
	if op.Mem.RIPRel {
		// Convert to absolute addressing relative to the original location.
		addr := in.Addr + uint64(in.Len) + uint64(int64(op.Mem.Disp))
		if addr < 1<<31 {
			return x86.MemAbs(op.Size, int32(addr)), nil
		}
		return op, fmt.Errorf("%w: rip-relative operand beyond 2 GiB at %#x", ErrUnsupported, in.Addr)
	}
	if op.Mem.Base != x86.NoReg {
		e.materialize(st, op.Mem.Base)
	}
	if op.Mem.Index != x86.NoReg {
		e.materialize(st, op.Mem.Index)
	}
	return op, nil
}

// emitAdjusted emits the instruction with immediate substitution for known
// source registers, materialization where substitution is impossible, and
// memory operand folding. The flags it reads must be valid (useFlags); the
// flags it writes become valid and unknown.
func (e *emitterState) emitAdjusted(st *mstate, in *x86.Inst) error {
	out := *in
	// A known source register becomes an immediate where the instruction
	// takes one. The flags are those of this form: a shift whose count
	// became an immediate reads none and writes the count's.
	if out.Src.Kind == x86.KReg && out.Src.Reg.IsGP() && immSubstitutable(out.Op) {
		if v, ok := st.regKnown(out.Src.Reg, out.Src.Size); ok && fitsImm32(v, out.Src.Size) {
			out.Src = x86.Imm(signExtVal(v, out.Src.Size), out.Src.Size)
		}
	}
	if err := e.useFlags(st, &out); err != nil {
		return err
	}

	// Adjust memory operands.
	var err error
	if out.Dst.Kind == x86.KMem {
		out.Dst, err = e.adjustMem(st, in, out.Dst)
		if err != nil {
			return err
		}
	}
	if out.Src.Kind == x86.KMem {
		out.Src, err = e.adjustMem(st, in, out.Src)
		if err != nil {
			return err
		}
	}

	// Materialize a known source register left in place.
	if out.Src.Kind == x86.KReg && out.Src.Reg.IsGP() {
		if _, ok := st.regKnown(out.Src.Reg, out.Src.Size); ok {
			e.materialize(st, out.Src.Reg)
		}
	}
	if out.Src.Kind == x86.KReg && out.Src.Reg.IsHighByte() {
		if _, ok := st.regKnown(out.Src.Reg.Parent(), 8); ok {
			e.materialize(st, out.Src.Reg.Parent())
		}
	}
	if out.Src2.Kind == x86.KReg && out.Src2.Reg.IsGP() {
		e.materialize(st, out.Src2.Reg)
	}

	// A destination register that is also read (ALU dst, partial writes)
	// must be materialized first.
	if out.Dst.Kind == x86.KReg && out.Dst.Reg.IsGP() {
		if readsDst(out.Op) || out.Dst.Size < 4 {
			e.materialize(st, out.Dst.Reg)
		}
	}
	if out.Dst.Kind == x86.KReg && out.Dst.Reg.IsHighByte() {
		e.materialize(st, out.Dst.Reg.Parent())
	}

	e.emit(out)

	// Post-state: written registers become dynamic.
	if out.Dst.Kind == x86.KReg && !writesNothing(out.Op) {
		if out.Dst.Reg.IsGP() {
			st.setDynamic(out.Dst.Reg)
		} else if out.Dst.Reg.IsHighByte() {
			st.setDynamic(out.Dst.Reg.Parent())
		}
	}
	if out.Op == x86.POP && out.Dst.Kind == x86.KReg {
		st.setDynamic(out.Dst.Reg)
	}
	if out.Op == x86.CVTTSD2SI || out.Op == x86.MOVMSKPD {
		if out.Dst.Kind == x86.KReg && out.Dst.Reg.IsGP() {
			st.setDynamic(out.Dst.Reg)
		}
	}
	written := flagWrites(&out)
	st.flags.known &^= written
	st.flags.valid |= written
	return nil
}

// flagWrites returns the flags the instruction writes. That is its flag
// table entry, except that a shift by a count other than 0 writes all six:
// x86 leaves AF undefined after it, and OF after a count above 1. The
// emulator keeps both, which the table records, but a specialization must
// not carry a value across a flag the hardware may change.
func flagWrites(in *x86.Inst) x86.FlagSet {
	_, written := in.FlagEffects()
	if written != 0 && (in.Op == x86.SHL || in.Op == x86.SHR || in.Op == x86.SAR) {
		return x86.AllFlags
	}
	return written
}

// immSubstitutable reports whether the instruction's source operand can be
// an immediate.
func immSubstitutable(op x86.Op) bool {
	switch op {
	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR,
		x86.CMP, x86.TEST, x86.MOV, x86.SHL, x86.SHR, x86.SAR, x86.ROL, x86.ROR:
		return true
	}
	return false
}

func fitsImm32(v uint64, size uint8) bool {
	sv := signExtVal(v, size)
	return sv >= -(1<<31) && sv < 1<<31
}

// readsDst reports whether the instruction reads its destination register.
func readsDst(op x86.Op) bool {
	switch op {
	case x86.MOV, x86.MOVZX, x86.MOVSX, x86.MOVSXD, x86.LEA, x86.POP,
		x86.SETCC, x86.MOVD, x86.MOVQGP, x86.CVTTSD2SI, x86.MOVMSKPD,
		x86.MOVSD_X, x86.MOVSS_X, x86.MOVAPS, x86.MOVUPS, x86.MOVAPD,
		x86.MOVUPD, x86.MOVDQA, x86.MOVDQU, x86.MOVQ:
		return false
	}
	return true
}

// writesNothing reports ops whose Dst operand is read-only (stores handled
// by operand kind; cmp/test/push write no register).
func writesNothing(op x86.Op) bool {
	switch op {
	case x86.CMP, x86.TEST, x86.PUSH, x86.COMISD, x86.UCOMISD, x86.COMISS, x86.UCOMISS:
		return true
	}
	return false
}
