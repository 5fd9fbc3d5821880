package dbrew

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

type visitKey struct {
	addr uint64
	st   uint64
}

type workItem struct {
	addr  uint64
	st    *mstate
	label asm.Label
}

type emitterState struct {
	rw      *Rewriter
	b       *asm.Builder
	visited map[visitKey]asm.Label
	queue   []workItem
}

// decode fetches one instruction from the original code.
func (e *emitterState) decode(addr uint64) (x86.Inst, error) {
	window := 15
	var code []byte
	for window > 0 {
		b, err := e.rw.mem.Bytes(addr, window)
		if err == nil {
			code = b
			break
		}
		window--
	}
	if code == nil {
		return x86.Inst{}, fmt.Errorf("dbrew: cannot fetch code at %#x", addr)
	}
	return x86.Decode(code, addr)
}

// processPath walks instructions from one work item until the path ends.
func (e *emitterState) processPath(item workItem) error {
	e.b.Bind(item.label)
	addr, st := item.addr, item.st
	maxInsts := e.rw.cfg.MaxInsts
	if maxInsts == 0 {
		maxInsts = 200000
	}
	for {
		if e.rw.Stats.Decoded >= maxInsts {
			return fmt.Errorf("dbrew: instruction budget exceeded (%d)", maxInsts)
		}
		key := visitKey{addr, st.hash()}
		if lbl, ok := e.visited[key]; ok {
			e.b.Jmp(lbl)
			return nil
		}
		here := e.b.NewLabel()
		e.b.Bind(here)
		e.visited[key] = here

		in, err := e.decode(addr)
		if err != nil {
			return err
		}
		e.rw.Stats.Decoded++

		next, done, err := e.step(st, &in)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if next == 0 {
			next = addr + uint64(in.Len)
		}
		addr = next
	}
}

// touchesRSPUntracked reports RSP manipulation outside push/pop/call/ret
// semantics, plus memory writes through RSP (they may alter saved slots).
func touchesRSPUntracked(in *x86.Inst) bool {
	switch in.Op {
	case x86.PUSH, x86.POP, x86.CALL, x86.CALLIndirect, x86.RET:
		return false
	}
	if in.Dst.Kind == x86.KReg && in.Dst.Reg == x86.RSP {
		return true
	}
	if in.Dst.Kind == x86.KMem && (in.Dst.Mem.Base == x86.RSP || in.Dst.Mem.Index == x86.RSP) {
		return true
	}
	return false
}

// step handles one instruction: control flow here, data instructions in
// exec. Returns the next address (0 = sequential) and whether the path ends.
func (e *emitterState) step(st *mstate, in *x86.Inst) (uint64, bool, error) {
	if touchesRSPUntracked(in) {
		st.invalidateVStack()
	}
	switch in.Op {
	case x86.RET:
		if n := len(st.retStack); n > 0 {
			ra := st.retStack[n-1]
			st.retStack = st.retStack[:n-1]
			return ra, false, nil
		}
		// The return value register must physically hold its value.
		switch e.rw.sig.Ret {
		case abi.ClassInt, abi.ClassPtr:
			e.materialize(st, x86.RAX)
		}
		e.emit(*in)
		return 0, true, nil

	case x86.UD2:
		e.emit(*in)
		return 0, true, nil

	case x86.JMP:
		return uint64(in.Dst.Imm), false, nil

	case x86.JMPIndirect:
		if v, ok := e.operandKnown(st, in, in.Dst); ok {
			return v, false, nil
		}
		return 0, false, fmt.Errorf("%w: indirect jump at %#x", ErrUnsupported, in.Addr)

	case x86.CALL, x86.CALLIndirect:
		var target uint64
		if in.Op == x86.CALL {
			target = uint64(in.Dst.Imm)
		} else if v, ok := e.operandKnown(st, in, in.Dst); ok {
			target = v
		} else {
			return 0, false, fmt.Errorf("%w: indirect call at %#x", ErrUnsupported, in.Addr)
		}
		depth := e.rw.cfg.InlineDepth
		if depth == 0 {
			depth = 8
		}
		if len(st.retStack) < depth {
			// Inline: continue rewriting inside the callee (feature (1) of
			// Section I: tight coupling by aggressive inlining).
			st.retStack = append(st.retStack, in.Addr+uint64(in.Len))
			e.rw.Stats.Inlined++
			return target, false, nil
		}
		// Emit a real call to the original callee.
		e.materializeAll(st)
		e.emit(x86.Inst{Op: x86.CALL, Dst: x86.Imm(int64(target), 8)})
		for _, r := range abi.CallerSaved {
			st.setDynamic(r)
		}
		st.killFlags()
		return 0, false, nil

	case x86.JCC:
		if need := in.Cond.Reads(); st.flags.known&need == need {
			// Statically resolved: follow the taken/not-taken path without
			// emitting — this is how full unrolling happens.
			if emu.CondHoldsIn(emu.FlagState(st.flags.f), in.Cond) {
				return uint64(in.Dst.Imm), false, nil
			}
			return 0, false, nil
		}
		if err := e.useFlags(st, in); err != nil {
			return 0, false, err
		}
		// Dynamic branch: canonicalize the state (all known registers
		// materialized) so that re-entering paths converge quickly, then
		// emit the branch and fork the abstract state.
		e.materializeAll(st)
		taken := e.b.NewLabel()
		e.queue = append(e.queue, workItem{
			addr:  uint64(in.Dst.Imm),
			st:    st.clone(),
			label: taken,
		})
		e.b.Jcc(in.Cond, taken)
		return 0, false, nil
	}
	return 0, false, e.exec(st, in)
}

// emit appends one instruction to the output.
func (e *emitterState) emit(in x86.Inst) {
	in.Addr, in.Len = 0, 0
	e.b.Emit(in)
	e.rw.Stats.Emitted++
}

// materialize ensures a known register physically holds its value.
func (e *emitterState) materialize(st *mstate, r x86.Reg) {
	rv := &st.gpr[r]
	if !rv.known || rv.mat {
		return
	}
	e.emit(x86.Inst{Op: x86.MOV, Dst: x86.R64(r), Src: x86.Imm(int64(rv.val), 8)})
	rv.mat = true
}

// materializeAll materializes every known register (before calls).
func (e *emitterState) materializeAll(st *mstate) {
	for r := x86.Reg(0); r < 16; r++ {
		e.materialize(st, r)
	}
}

// regKnown reads a known register facet.
func (st *mstate) regKnown(r x86.Reg, size uint8) (uint64, bool) {
	if r.IsHighByte() {
		p := st.gpr[r.Parent()]
		if !p.known {
			return 0, false
		}
		return (p.val >> 8) & 0xFF, true
	}
	v := st.gpr[r]
	if !v.known {
		return 0, false
	}
	return truncVal(v.val, size), true
}

func truncVal(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return v & 0xFF
	case 2:
		return v & 0xFFFF
	case 4:
		return v & 0xFFFFFFFF
	}
	return v
}

func signExtVal(v uint64, size uint8) int64 {
	switch size {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	}
	return int64(v)
}

// addrKnown resolves a memory operand address if all components are known.
func (e *emitterState) addrKnown(st *mstate, in *x86.Inst, mem x86.MemArg) (uint64, bool) {
	if mem.Seg != x86.SegNone {
		return 0, false
	}
	var addr uint64
	if mem.RIPRel {
		addr = in.Addr + uint64(in.Len)
	} else if mem.Base != x86.NoReg {
		v, ok := st.regKnown(mem.Base, 8)
		if !ok {
			return 0, false
		}
		addr = v
	}
	if mem.Index != x86.NoReg {
		v, ok := st.regKnown(mem.Index, 8)
		if !ok {
			return 0, false
		}
		addr += v * uint64(mem.Scale)
	}
	return addr + uint64(int64(mem.Disp)), true
}

// operandKnown resolves an operand to a known value: register state,
// immediate, or a load from a fixed memory range.
func (e *emitterState) operandKnown(st *mstate, in *x86.Inst, op x86.Operand) (uint64, bool) {
	switch op.Kind {
	case x86.KImm:
		return uint64(op.Imm), true
	case x86.KReg:
		if op.Reg.IsHighByte() {
			return st.regKnown(op.Reg, 1)
		}
		return st.regKnown(op.Reg, op.Size)
	case x86.KMem:
		addr, ok := e.addrKnown(st, in, op.Mem)
		if !ok {
			return 0, false
		}
		for _, r := range e.rw.ranges {
			if r.Contains(addr, int(op.Size)) {
				v, err := e.rw.mem.ReadU(addr, int(op.Size))
				if err != nil {
					return 0, false
				}
				return v, true
			}
		}
		return 0, false
	}
	return 0, false
}

// useFlags makes the flags an emitted instruction reads valid in the
// runtime flags register. A flag whose producer was eliminated is
// materialized when it is a known CF, with stc or clc; any other such flag
// makes the rewrite refuse.
func (e *emitterState) useFlags(st *mstate, in *x86.Inst) error {
	read, _ := in.FlagEffects()
	miss := read &^ st.flags.valid
	if miss == x86.FlagCF && st.flags.known&x86.FlagCF != 0 {
		if st.flags.f&x86.FlagCF != 0 {
			e.emit(x86.Inst{Op: x86.STC})
		} else {
			e.emit(x86.Inst{Op: x86.CLC})
		}
		st.flags.valid |= x86.FlagCF
		miss = 0
	}
	if miss != 0 {
		return fmt.Errorf("%w: %v consumes eliminated flags at %#x", ErrUnsupported, in.Op, in.Addr)
	}
	return nil
}

// writeKnown updates a register with a known value at the given width,
// following the x86 zero/merge rules. Returns false when the merge needs an
// unknown old value (the register must then become dynamic via emission).
func (st *mstate) writeKnown(r x86.Reg, size uint8, v uint64) bool {
	if r.IsHighByte() {
		p := &st.gpr[r.Parent()]
		if !p.known {
			return false
		}
		p.val = p.val&^uint64(0xFF00) | (v&0xFF)<<8
		p.mat = false
		return true
	}
	rv := &st.gpr[r]
	switch size {
	case 8:
		*rv = regVal{known: true, val: v}
	case 4:
		*rv = regVal{known: true, val: v & 0xFFFFFFFF}
	case 2, 1:
		if !rv.known {
			return false
		}
		mask := uint64(0xFFFF)
		if size == 1 {
			mask = 0xFF
		}
		rv.val = rv.val&^mask | v&mask
		rv.mat = false
	}
	return true
}
