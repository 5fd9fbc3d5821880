package jit

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/lift"
	"repro/internal/x86"
)

// This file executes optimized trace IR (lift.TraceProgram) through a
// compact register-machine bytecode. The native stencil backend (isel.go)
// targets straight-line kernels; trace loops instead run on a slot-based VM
// whose per-op cost is one switch dispatch over a flat array — an order of
// magnitude cheaper than the block engine's per-instruction closure calls
// with eager flag computation, which is where the trace tier's speedup
// comes from. Every SSA value owns a slot (uint64; i1 held as 0/1, double
// as its bit pattern, so a bitcast is the slot of its operand);
// constants are pre-staged in a template image and phis become buffered
// parallel moves on the incoming edges.

type vmCode uint8

const (
	vAdd vmCode = iota
	vSub
	vMul
	vAnd
	vOr
	vXor
	vShl
	vLShr
	vAShr
	vICmp   // aux = pred
	vSelect // t0 = cond slot
	vCtpop
	vFAdd // scalar double on slot bit patterns, through emu.AddF64 and its siblings
	vFSub
	vFMul
	vFDiv
	vCopy
	vTrunc // aux = dest bits
	vSExt  // aux = source bits
	vBr    // a = move set (-1 none), t0 = target pc
	vCondBr
	vBrICmp // fused compare+branch; aux = pred, also writes dst
	vLoad   // aux = size, b = region site, t0 = deopt exit
	vStore  // aux = size, dst = region site, t0 = deopt exit
	vGenCheck
	vExit // a = exit index
)

// vmOp is one VM instruction. Field roles vary by opcode; slots and branch
// targets are indices, aux is an opcode-specific immediate.
type vmOp struct {
	code   vmCode
	aux    uint8
	dst    int32
	a, b   int32
	t0, t1 int32
}

// vmMoves is the phi assignment of one CFG edge. ord holds moves already
// sequenced at build time so plain in-order copies realize the parallel
// semantics; cdst/csrc hold any cyclic remainder, applied through a buffer.
type vmMoves struct {
	ord        []int32 // dst, src interleaved
	cdst, csrc []int32
}

type vmExit struct {
	st        *lift.TraceExit
	regSlots  []int32
	xmmSlots  []int32 // lo, hi per vmProg.xmmIdx register
	flagSlots []int32
	ctrSlot   int32
}

// vmProg is a compiled trace. It belongs to one machine's trace entry and is
// executed serially, so the slot scratch and per-site region caches need no
// synchronization.
type vmProg struct {
	code     []vmOp
	template []uint64
	scratch  []uint64
	buf      []uint64
	moves    []vmMoves
	exits    []vmExit
	sites    []*emu.Region
	regIdx   []int
	xmmIdx   []int // XMM registers written back at every exit
	xmmIn    []int // XMM registers whose lanes are loaded on entry
	mem      *emu.Memory
	cost     *emu.CostModel
	// lineMask enables the inlined penalty test (cache line size - 1) for
	// power-of-two lines with a nonzero split penalty; penCall falls back
	// to CostModel.MemPenalty for exotic models; both zero/false means
	// accesses can never be penalized (sizes in traces are at most 8).
	lineMask uint64
	penCall  bool
}

// penalized reports whether a size-byte access at addr would carry a memory
// penalty, in which case it must deoptimize (in-trace accesses are charged
// zero extra cycles).
func (p *vmProg) penalized(addr, size uint64, write bool) bool {
	if p.lineMask != 0 {
		return (addr&p.lineMask)+size > p.lineMask+1
	}
	if p.penCall {
		return p.cost.MemPenalty(addr, int(size), write) != 0
	}
	return false
}

func vmask(bits uint8) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<bits - 1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func vtrunc(v uint64, size uint8) uint64 { return v & vmask(size*8) }

func vsignBit(v uint64, size uint8) bool { return v>>(uint(size)*8-1)&1 != 0 }

func vsext(v uint64, size uint8) int64 {
	sh := 64 - uint(size)*8
	return int64(v<<sh) >> sh
}

// run executes the trace. See emu.TraceRunFunc for the contract; the caller
// guarantees iterCap >= 1, so the first header cap-check never fires before
// an iteration has completed and the loop-carried phis hold real values.
func (p *vmProg) run(m *emu.Machine, iterCap uint64) (iters, steps, rip uint64) {
	slots := p.scratch
	p.enter(slots, p.template, m, iterCap)
	startGen := p.mem.CodeGen()

	code := p.code
	pc := int32(0)
	for {
		op := &code[pc]
		switch op.code {
		case vAdd:
			slots[op.dst] = slots[op.a] + slots[op.b]
		case vSub:
			slots[op.dst] = slots[op.a] - slots[op.b]
		case vMul:
			slots[op.dst] = slots[op.a] * slots[op.b]
		case vAnd:
			slots[op.dst] = slots[op.a] & slots[op.b]
		case vOr:
			slots[op.dst] = slots[op.a] | slots[op.b]
		case vXor:
			slots[op.dst] = slots[op.a] ^ slots[op.b]
		case vShl:
			slots[op.dst] = slots[op.a] << (slots[op.b] & 63)
		case vLShr:
			slots[op.dst] = slots[op.a] >> (slots[op.b] & 63)
		case vAShr:
			slots[op.dst] = uint64(int64(slots[op.a]) >> (slots[op.b] & 63))
		case vICmp:
			slots[op.dst] = b2u(vcmp(ir.Pred(op.aux), slots[op.a], slots[op.b]))
		case vSelect:
			if slots[op.t0] != 0 {
				slots[op.dst] = slots[op.a]
			} else {
				slots[op.dst] = slots[op.b]
			}
		case vCtpop:
			slots[op.dst] = uint64(bits.OnesCount64(slots[op.a]))
		case vFAdd:
			slots[op.dst] = math.Float64bits(emu.AddF64(math.Float64frombits(slots[op.a]), math.Float64frombits(slots[op.b])))
		case vFSub:
			slots[op.dst] = math.Float64bits(emu.SubF64(math.Float64frombits(slots[op.a]), math.Float64frombits(slots[op.b])))
		case vFMul:
			slots[op.dst] = math.Float64bits(emu.MulF64(math.Float64frombits(slots[op.a]), math.Float64frombits(slots[op.b])))
		case vFDiv:
			slots[op.dst] = math.Float64bits(emu.DivF64(math.Float64frombits(slots[op.a]), math.Float64frombits(slots[op.b])))
		case vCopy:
			slots[op.dst] = slots[op.a]
		case vTrunc:
			slots[op.dst] = slots[op.a] & vmask(op.aux)
		case vSExt:
			sh := 64 - uint(op.aux)
			slots[op.dst] = uint64(int64(slots[op.a]<<sh) >> sh)
		case vBr:
			if op.a >= 0 {
				p.applyMoves(op.a, slots)
			}
			pc = op.t0
			continue
		case vCondBr:
			if slots[op.a] != 0 {
				pc = op.t0
			} else {
				pc = op.t1
			}
			continue
		case vBrICmp:
			c := vcmp(ir.Pred(op.aux), slots[op.a], slots[op.b])
			slots[op.dst] = b2u(c)
			if c {
				pc = op.t0
			} else {
				pc = op.t1
			}
			continue
		case vLoad:
			addr, size := slots[op.a], uint64(op.aux)
			r := p.sites[op.b]
			if r == nil || addr < r.Start || addr+size > r.End() {
				r = p.mem.FindRegion(addr, int(size))
				if r == nil {
					return p.takeExit(m, op.t0, slots) // fault: re-execute in the block engine
				}
				p.sites[op.b] = r
			}
			if p.penalized(addr, size, false) {
				return p.takeExit(m, op.t0, slots) // penalized access: exact cycle accounting needs the block engine
			}
			d := r.Data[addr-r.Start:]
			switch size {
			case 1:
				slots[op.dst] = uint64(d[0])
			case 2:
				slots[op.dst] = uint64(binary.LittleEndian.Uint16(d))
			case 4:
				slots[op.dst] = uint64(binary.LittleEndian.Uint32(d))
			default:
				slots[op.dst] = binary.LittleEndian.Uint64(d)
			}
		case vStore:
			addr, size := slots[op.a], uint64(op.aux)
			r := p.sites[op.dst]
			if r == nil || addr < r.Start || addr+size > r.End() {
				r = p.mem.FindRegion(addr, int(size))
				if r == nil {
					return p.takeExit(m, op.t0, slots)
				}
				p.sites[op.dst] = r
			}
			if r.Watched() || p.penalized(addr, size, true) {
				// Stores into code-bearing regions must go through the
				// tracked write path (they bump the code generation).
				return p.takeExit(m, op.t0, slots)
			}
			d := r.Data[addr-r.Start:]
			v := slots[op.b]
			switch size {
			case 1:
				d[0] = byte(v)
			case 2:
				binary.LittleEndian.PutUint16(d, uint16(v))
			case 4:
				binary.LittleEndian.PutUint32(d, uint32(v))
			default:
				binary.LittleEndian.PutUint64(d, v)
			}
		case vGenCheck:
			if p.mem.CodeGen() != startGen {
				return p.takeExit(m, op.t0, slots)
			}
		case vExit:
			return p.takeExit(m, op.a, slots)
		}
		pc++
	}
}

// enter stages the trace parameters: template image, then the machine's
// GPRs, flags, the lanes of the XMM registers the trace touches, and the
// iteration cap.
func (p *vmProg) enter(slots, template []uint64, m *emu.Machine, iterCap uint64) {
	copy(slots, template)
	copy(slots[:16], m.GPR[:])
	f := &m.Flags
	slots[lift.TraceParamFlags+0] = b2u(f.CF)
	slots[lift.TraceParamFlags+1] = b2u(f.PF)
	slots[lift.TraceParamFlags+2] = b2u(f.AF)
	slots[lift.TraceParamFlags+3] = b2u(f.ZF)
	slots[lift.TraceParamFlags+4] = b2u(f.SF)
	slots[lift.TraceParamFlags+5] = b2u(f.OF)
	slots[lift.TraceParamCap] = iterCap
	for i, r := range p.xmmIn {
		slots[lift.TraceParamXMM+2*i] = m.XMM[r].Lo
		slots[lift.TraceParamXMM+2*i+1] = m.XMM[r].Hi
	}
}

func vcmp(pred ir.Pred, a, b uint64) bool {
	switch pred {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredULT:
		return a < b
	case ir.PredULE:
		return a <= b
	case ir.PredUGT:
		return a > b
	case ir.PredUGE:
		return a >= b
	case ir.PredSLT:
		return int64(a) < int64(b)
	case ir.PredSLE:
		return int64(a) <= int64(b)
	case ir.PredSGT:
		return int64(a) > int64(b)
	case ir.PredSGE:
		return int64(a) >= int64(b)
	}
	return false
}

func (p *vmProg) applyMoves(idx int32, slots []uint64) {
	mv := &p.moves[idx]
	for i := 0; i < len(mv.ord); i += 2 {
		slots[mv.ord[i]] = slots[mv.ord[i+1]]
	}
	if len(mv.cdst) > 0 {
		buf := p.buf
		for i, s := range mv.csrc {
			buf[i] = slots[s]
		}
		for i, d := range mv.cdst {
			slots[d] = buf[i]
		}
	}
}

// takeExit materializes the architectural state of exit idx onto the
// machine: written-back registers (both lanes of an XMM register), the six
// flags recomputed from the exit's symbolic recipe, and the (iters, steps,
// rip) triple for the dispatcher.
func (p *vmProg) takeExit(m *emu.Machine, idx int32, slots []uint64) (uint64, uint64, uint64) {
	e := &p.exits[idx]
	for i, ri := range p.regIdx {
		m.GPR[ri] = slots[e.regSlots[i]]
	}
	for i, ri := range p.xmmIdx {
		m.XMM[ri] = emu.XMMReg{Lo: slots[e.xmmSlots[2*i]], Hi: slots[e.xmmSlots[2*i+1]]}
	}
	fs := e.flagSlots
	st := e.st
	switch st.Kind {
	case lift.TFExplicit:
		m.Flags = emu.Flags{
			CF: slots[fs[0]] != 0, PF: slots[fs[1]] != 0, AF: slots[fs[2]] != 0,
			ZF: slots[fs[3]] != 0, SF: slots[fs[4]] != 0, OF: slots[fs[5]] != 0,
		}
	case lift.TFAdd:
		m.Flags = emu.FlagsOfAdd(slots[fs[0]], slots[fs[1]], st.W)
	case lift.TFSub:
		m.Flags = emu.FlagsOfSub(slots[fs[0]], slots[fs[1]], st.W)
	case lift.TFAddCF:
		f := emu.FlagsOfAdd(slots[fs[0]], slots[fs[1]], st.W)
		f.CF = slots[fs[2]] != 0
		m.Flags = f
	case lift.TFSubCF:
		f := emu.FlagsOfSub(slots[fs[0]], slots[fs[1]], st.W)
		f.CF = slots[fs[2]] != 0
		m.Flags = f
	case lift.TFLogic:
		m.Flags = emu.FlagsOfLogic(slots[fs[0]], st.W)
	case lift.TFShift:
		v, res := slots[fs[0]], slots[fs[1]]
		f := emu.FlagsOfLogic(res, st.W)
		f.AF = slots[fs[2]] != 0
		width := uint64(st.W) * 8
		cnt := uint64(st.ShiftCnt)
		if st.ShiftOp == x86.SHL {
			f.CF = cnt <= width && v>>(width-cnt)&1 != 0
		} else {
			f.CF = v>>(cnt-1)&1 != 0
		}
		if cnt == 1 {
			f.OF = vsignBit(res, st.W) != vsignBit(v, st.W)
		} else {
			f.OF = slots[fs[3]] != 0
		}
		m.Flags = f
	case lift.TFMul:
		full := slots[fs[0]]
		f := emu.FlagsOfLogic(full, st.W)
		f.CF = vsext(vtrunc(full, st.W), st.W) != int64(full)
		f.OF = f.CF
		f.AF = slots[fs[1]] != 0
		m.Flags = f
	}
	return slots[e.ctrSlot], st.Steps, st.RIP
}

// --- bytecode compilation ---------------------------------------------------

type vmBuilder struct {
	p       *vmProg
	prog    *lift.TraceProgram
	slot    map[*ir.Inst]int32
	cslot   map[ir.Value]int32 // constants and undefs, by pointer
	blockPC map[*ir.Block]int32
	exitIdx map[*ir.Inst]int32
	fixups  []vmFixup
	maxMove int
}

type vmFixup struct {
	op     int32
	field  int8 // 0 = t0, 1 = t1
	target *ir.Block
}

// buildVM compiles optimized trace IR into a vmProg.
func buildVM(prog *lift.TraceProgram, mem *emu.Memory, cost *emu.CostModel) (*vmProg, error) {
	if cost == nil {
		cost = emu.HaswellModel()
	}
	pv := &vmProg{mem: mem, cost: cost, regIdx: prog.RegIdx, xmmIdx: prog.XMMIdx, xmmIn: prog.XMMIn}
	switch l := cost.LineSize; {
	case l != 0 && l&(l-1) == 0:
		if cost.SplitPenalty != 0 {
			pv.lineMask = l - 1
		}
	default:
		pv.penCall = true
	}
	b := &vmBuilder{
		p:       pv,
		prog:    prog,
		slot:    make(map[*ir.Inst]int32),
		cslot:   make(map[ir.Value]int32),
		blockPC: make(map[*ir.Block]int32),
		exitIdx: make(map[*ir.Inst]int32),
	}
	f := prog.F
	// Parameters own the first slots, at their parameter index.
	b.p.template = make([]uint64, len(f.Params))
	for _, blk := range f.Blocks {
		for _, in := range blk.Insts {
			if in.Ty != nil && in.Ty != ir.Void && in.Op != ir.OpBitcast {
				b.slot[in] = int32(len(b.p.template))
				b.p.template = append(b.p.template, 0)
			}
		}
	}
	for _, blk := range f.Blocks {
		if err := b.emitBlock(blk); err != nil {
			return nil, err
		}
	}
	for _, fx := range b.fixups {
		pc, ok := b.blockPC[fx.target]
		if !ok {
			return nil, fmt.Errorf("jit: trace VM: branch to unemitted block %s", fx.target.Nam)
		}
		if fx.field == 0 {
			b.p.code[fx.op].t0 = pc
		} else {
			b.p.code[fx.op].t1 = pc
		}
	}
	b.p.scratch = make([]uint64, len(b.p.template))
	b.p.buf = make([]uint64, b.maxMove)
	return b.p, nil
}

func (b *vmBuilder) slotOf(v ir.Value) (int32, error) {
	switch t := v.(type) {
	case *ir.Inst:
		if t.Op == ir.OpBitcast {
			// Slots hold bit patterns, so an i64 <-> double bitcast is its
			// operand's slot and costs nothing at run time.
			return b.slotOf(t.Args[0])
		}
		s, ok := b.slot[t]
		if !ok {
			return 0, fmt.Errorf("jit: trace VM: use of unslotted %s", t.Nam)
		}
		return s, nil
	case *ir.Param:
		return int32(t.Idx), nil
	case *ir.ConstInt:
		return b.constSlot(v, t.V), nil
	case *ir.ConstFloat:
		if t.Ty.Equal(ir.Double) {
			return b.constSlot(v, t.Bits()), nil
		}
	case *ir.Undef, *ir.Zero:
		return b.constSlot(v, 0), nil
	}
	return 0, fmt.Errorf("jit: trace VM: unsupported value %s", v.Ident())
}

// constSlot interns a constant (by pointer) in the template image.
func (b *vmBuilder) constSlot(v ir.Value, bits uint64) int32 {
	if s, ok := b.cslot[v]; ok {
		return s
	}
	s := int32(len(b.p.template))
	b.p.template = append(b.p.template, bits)
	b.cslot[v] = s
	return s
}

func (b *vmBuilder) emit(op vmOp) int32 {
	b.p.code = append(b.p.code, op)
	return int32(len(b.p.code) - 1)
}

// branchTo records a branch-target fixup on the just-emitted op.
func (b *vmBuilder) branchTo(op int32, field int8, target *ir.Block) {
	b.fixups = append(b.fixups, vmFixup{op: op, field: field, target: target})
}

// movesFor builds the phi move set for the pred -> succ edge, or -1.
func (b *vmBuilder) movesFor(pred, succ *ir.Block) (int32, error) {
	var dst, src []int32
	for _, in := range succ.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		found := false
		for i, inc := range in.Incoming {
			if inc == pred {
				s, err := b.slotOf(in.Args[i])
				if err != nil {
					return 0, err
				}
				if d := b.slot[in]; d != s { // self-moves vanish
					dst = append(dst, d)
					src = append(src, s)
				}
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("jit: trace VM: phi in %s missing incoming from %s", succ.Nam, pred.Nam)
		}
	}
	if len(dst) == 0 {
		return -1, nil
	}
	mv := sequenceMoves(dst, src)
	if n := len(mv.cdst); n > b.maxMove {
		b.maxMove = n
	}
	b.p.moves = append(b.p.moves, mv)
	return int32(len(b.p.moves) - 1), nil
}

// sequenceMoves orders a parallel assignment so in-order copies preserve
// its semantics: a move may run once no remaining move still reads its
// destination. The (rare) cyclic remainder is carried separately and
// realized through a scratch buffer at run time.
func sequenceMoves(dst, src []int32) vmMoves {
	var mv vmMoves
	pending := make([]bool, len(dst))
	for i := range pending {
		pending[i] = true
	}
	remaining := len(dst)
	for remaining > 0 {
		progress := false
		for i := range dst {
			if !pending[i] {
				continue
			}
			blocked := false
			for j := range src {
				if pending[j] && j != i && src[j] == dst[i] {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			mv.ord = append(mv.ord, dst[i], src[i])
			pending[i] = false
			remaining--
			progress = true
		}
		if !progress {
			break // only cycles remain
		}
	}
	for i := range dst {
		if pending[i] {
			mv.cdst = append(mv.cdst, dst[i])
			mv.csrc = append(mv.csrc, src[i])
		}
	}
	return mv
}

// exitFor interns the vmExit for an exit call.
func (b *vmBuilder) exitFor(call *ir.Inst) (int32, error) {
	if idx, ok := b.exitIdx[call]; ok {
		return idx, nil
	}
	st := b.prog.Exits[call]
	if st == nil {
		return 0, fmt.Errorf("jit: trace VM: call %s is not a registered exit", call.Callee.Nam)
	}
	nreg, nxmm := len(b.prog.RegIdx), 2*len(b.prog.XMMIdx)
	if want := nreg + nxmm + st.NArgs + 1; len(call.Args) != want {
		return 0, fmt.Errorf("jit: trace VM: exit %s has %d args, want %d", call.Callee.Nam, len(call.Args), want)
	}
	e := vmExit{st: st}
	for i, a := range call.Args {
		s, err := b.slotOf(a)
		if err != nil {
			return 0, err
		}
		switch {
		case i < nreg:
			e.regSlots = append(e.regSlots, s)
		case i < nreg+nxmm:
			e.xmmSlots = append(e.xmmSlots, s)
		case i < nreg+nxmm+st.NArgs:
			e.flagSlots = append(e.flagSlots, s)
		default:
			e.ctrSlot = s
		}
	}
	idx := int32(len(b.p.exits))
	b.p.exits = append(b.p.exits, e)
	b.exitIdx[call] = idx
	return idx, nil
}

func (b *vmBuilder) emitBlock(blk *ir.Block) error {
	b.blockPC[blk] = int32(len(b.p.code))
	var lastICmp *ir.Inst
	var lastICmpOp int32
	for _, in := range blk.Insts {
		switch in.Op {
		case ir.OpPhi:
			continue // realized by edge moves

		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpShl, ir.OpLShr, ir.OpAShr,
			ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			if in.Ty.IsFP() && !in.Ty.Equal(ir.Double) {
				return fmt.Errorf("jit: trace VM: %s on %s", in.Op, in.Ty)
			}
			a, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			c, err := b.slotOf(in.Args[1])
			if err != nil {
				return err
			}
			var code vmCode
			switch in.Op {
			case ir.OpAdd:
				code = vAdd
			case ir.OpSub:
				code = vSub
			case ir.OpMul:
				code = vMul
			case ir.OpAnd:
				code = vAnd
			case ir.OpOr:
				code = vOr
			case ir.OpXor:
				code = vXor
			case ir.OpShl:
				code = vShl
			case ir.OpLShr:
				code = vLShr
			case ir.OpAShr:
				code = vAShr
			case ir.OpFAdd:
				code = vFAdd
			case ir.OpFSub:
				code = vFSub
			case ir.OpFMul:
				code = vFMul
			case ir.OpFDiv:
				code = vFDiv
			}
			b.emit(vmOp{code: code, dst: b.slot[in], a: a, b: c})

		case ir.OpBitcast:
			// No code: slotOf resolves the value to its operand's slot.
			from, to := in.Args[0].Type(), in.Ty
			if !(from.Equal(ir.I64) && to.Equal(ir.Double)) && !(from.Equal(ir.Double) && to.Equal(ir.I64)) {
				return fmt.Errorf("jit: trace VM: bitcast %s to %s", from, to)
			}

		case ir.OpICmp:
			a, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			c, err := b.slotOf(in.Args[1])
			if err != nil {
				return err
			}
			lastICmp = in
			lastICmpOp = b.emit(vmOp{code: vICmp, aux: uint8(in.Pred), dst: b.slot[in], a: a, b: c})

		case ir.OpSelect:
			cond, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			x, err := b.slotOf(in.Args[1])
			if err != nil {
				return err
			}
			y, err := b.slotOf(in.Args[2])
			if err != nil {
				return err
			}
			b.emit(vmOp{code: vSelect, dst: b.slot[in], a: x, b: y, t0: cond})

		case ir.OpCtpop:
			a, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			b.emit(vmOp{code: vCtpop, dst: b.slot[in], a: a})

		case ir.OpTrunc:
			a, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			b.emit(vmOp{code: vTrunc, aux: uint8(in.Ty.Bits), dst: b.slot[in], a: a})
		case ir.OpZExt:
			a, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			b.emit(vmOp{code: vCopy, dst: b.slot[in], a: a}) // slots are zero-extended already
		case ir.OpSExt:
			a, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			b.emit(vmOp{code: vSExt, aux: uint8(in.Args[0].Type().Bits), dst: b.slot[in], a: a})

		case ir.OpCall:
			if b.prog.Exits[in] != nil {
				idx, err := b.exitFor(in)
				if err != nil {
					return err
				}
				b.emit(vmOp{code: vExit, a: idx})
				return nil // the rest of the block is unreachable
			}
			mm := b.prog.Mems[in]
			if mm == nil {
				return fmt.Errorf("jit: trace VM: unexpected call to %s", in.Callee.Nam)
			}
			exit, err := b.exitFor(mm.Exit)
			if err != nil {
				return err
			}
			site := int32(len(b.p.sites))
			b.p.sites = append(b.p.sites, nil)
			addr, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			if mm.Write {
				val, err := b.slotOf(in.Args[1])
				if err != nil {
					return err
				}
				b.emit(vmOp{code: vStore, aux: uint8(mm.Size), dst: site, a: addr, b: val, t0: exit})
			} else {
				b.emit(vmOp{code: vLoad, aux: uint8(mm.Size), dst: b.slot[in], a: addr, b: site, t0: exit})
			}

		case ir.OpBr:
			if blk == b.prog.Backedge {
				genExit, err := b.exitFor(b.prog.GenExit)
				if err != nil {
					return err
				}
				b.emit(vmOp{code: vGenCheck, t0: genExit})
			}
			mv, err := b.movesFor(blk, in.Blocks[0])
			if err != nil {
				return err
			}
			op := b.emit(vmOp{code: vBr, a: mv})
			b.branchTo(op, 0, in.Blocks[0])

		case ir.OpCondBr:
			cond, err := b.slotOf(in.Args[0])
			if err != nil {
				return err
			}
			// Both targets are move-free in trace IR (only the header has
			// phis and it is only entered through br edges); reject the
			// unexpected rather than emitting a wrong branch.
			for _, t := range in.Blocks {
				if mv, err := b.movesFor(blk, t); err != nil {
					return err
				} else if mv >= 0 {
					return fmt.Errorf("jit: trace VM: conditional edge %s -> %s carries phi moves", blk.Nam, t.Nam)
				}
			}
			if lastICmp != nil && ir.Value(lastICmp) == in.Args[0] && lastICmpOp == int32(len(b.p.code)-1) {
				// Fuse the just-emitted compare into the branch (the slot
				// is still written for any later consumer).
				o := &b.p.code[lastICmpOp]
				o.code = vBrICmp
				b.branchTo(lastICmpOp, 0, in.Blocks[0])
				b.branchTo(lastICmpOp, 1, in.Blocks[1])
				return nil
			}
			op := b.emit(vmOp{code: vCondBr, a: cond})
			b.branchTo(op, 0, in.Blocks[0])
			b.branchTo(op, 1, in.Blocks[1])

		case ir.OpUnreachable:
			return fmt.Errorf("jit: trace VM: reachable unreachable in %s", blk.Nam)

		default:
			return fmt.Errorf("jit: trace VM: unsupported op %s in %s", in.Op, blk.Nam)
		}
	}
	return nil
}
