package lift

import (
	"fmt"
	"sort"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/x86"
)

// Options control the transformation, exposing the paper's design choices
// as ablatable switches.
type Options struct {
	// FlagCache enables the cmp-operand cache of Section III.D (Figure 6).
	FlagCache bool
	// FacetCache caches derived register facets per block (Section III.C).
	FacetCache bool
	// UseGEP reconstructs addresses with getelementptr instead of integer
	// arithmetic plus inttoptr (Section III.E).
	UseGEP bool
	// StackSize is the size of the virtual stack allocated via alloca
	// (Section III.F). The used portion must not exceed this limit.
	StackSize int
	// MaxInsts bounds decoding, mirroring DBrew's resource limits.
	MaxInsts int
	// VolatileRanges marks address ranges whose accesses are volatile.
	// The paper notes this cannot be derived from the assembly and needs
	// an explicit API (Section III.E's future work); this is that API:
	// accesses whose address is statically within a range are marked, and
	// the optimizer then neither reorders nor eliminates them.
	VolatileRanges []VolatileRange
	// Trace, when non-nil, receives a "decode" span (basic-block discovery)
	// and a "lift" span (translation) per LiftFunc call, with instruction
	// and IR-value size attributes. A nil Trace records nothing.
	Trace *trace.Trace
}

// VolatileRange is a half-open interval of volatile memory.
type VolatileRange struct {
	Start, End uint64
}

// DefaultOptions returns the configuration used in the paper's evaluation.
func DefaultOptions() Options {
	return Options{FlagCache: true, FacetCache: true, UseGEP: true, StackSize: 1024}
}

// Callee associates a lifted or declared IR function with its signature.
type Callee struct {
	Fn  *ir.Func
	Sig abi.Signature
}

// Lifter converts x86-64 functions in an emulated address space to IR.
type Lifter struct {
	Mem    *emu.Memory
	Opts   Options
	Module *ir.Module
	// Funcs maps machine entry addresses to known functions so that call
	// instructions can be translated (Section III.B).
	Funcs map[uint64]*Callee

	b          *ir.Builder
	globalBase *ir.Global
	blockIR    map[uint64]*ir.Block
	stackSlots int
}

// New returns a lifter over mem with the given options.
func New(mem *emu.Memory, opts Options) *Lifter {
	return &Lifter{
		Mem:    mem,
		Opts:   opts,
		Module: &ir.Module{},
		Funcs:  make(map[uint64]*Callee),
	}
}

// Declare registers a function signature at an address without lifting it,
// so calls to it can be translated. The returned Callee's Fn is a
// declaration (no blocks) until LiftFunc is called for the same address.
func (l *Lifter) Declare(addr uint64, name string, sig abi.Signature) *Callee {
	if c, ok := l.Funcs[addr]; ok {
		return c
	}
	f := ir.NewFunc(name, retType(sig), paramTypes(sig)...)
	f.Addr = addr
	l.Module.AddFunc(f)
	c := &Callee{Fn: f, Sig: sig}
	l.Funcs[addr] = c
	return c
}

func paramTypes(sig abi.Signature) []*ir.Type {
	out := make([]*ir.Type, len(sig.Params))
	for i, c := range sig.Params {
		switch c {
		case abi.ClassPtr:
			out[i] = ir.PtrTo(ir.I8)
		case abi.ClassF64:
			out[i] = ir.Double
		default:
			out[i] = ir.I64
		}
	}
	return out
}

func retType(sig abi.Signature) *ir.Type {
	switch sig.Ret {
	case abi.ClassF64:
		return ir.Double
	case abi.ClassPtr:
		return ir.PtrTo(ir.I8)
	case abi.ClassInt:
		return ir.I64
	}
	return ir.Void
}

type blockLift struct {
	mb  *machBlock
	irb *ir.Block
	st  *state
	// phis holds the entry phis created so far, indexed by slot; entered
	// has bit g set once entry group g has its phis.
	phis    [phisPerBlock]*ir.Inst
	entered uint64
}

// gprPhiFacets and xmmPhiFacets are the facets merged through phi nodes at
// block heads. The paper merges "the values of the registers in all facets
// of the predecessors" in every block and leaves unused phis to the
// optimizer; this lifter creates a register's phis, all these facets at
// once, only in blocks that need its entry value (see state).
var gprPhiFacets = [...]Facet{FI64, FPtr}
var xmmPhiFacets = [...]Facet{FI128, FF64, FV2F64}

// Entry phi slots order a block's phis at its head: register r's GPR then
// XMM facets at r*slotsPerReg, then the flags at flagSlot.
const (
	slotsPerReg  = len(gprPhiFacets) + len(xmmPhiFacets)
	flagSlot     = 16 * slotsPerReg
	phisPerBlock = flagSlot + numFlags
)

// newPhi creates an entry phi for slot. Phis join the block head in slot
// order once every block is translated, so they are built outside the
// builder.
func (bl *blockLift) newPhi(slot int, ty *ir.Type, name string) *ir.Inst {
	phi := &ir.Inst{Op: ir.OpPhi, Ty: ty, Nam: name, Parent: bl.irb}
	bl.phis[slot] = phi
	return phi
}

// LiftFunc lifts the function at addr. The signature determines the
// parameter-register mapping of Section III.A.
func (l *Lifter) LiftFunc(addr uint64, name string, sig abi.Signature) (*ir.Func, error) {
	decodeSpan := l.Opts.Trace.Start("decode")
	mbs, err := discover(l.Mem, addr, l.Opts.MaxInsts)
	if err != nil {
		decodeSpan.EndErr(err)
		return nil, err
	}
	machInsts := 0
	for _, mb := range mbs {
		machInsts += len(mb.insts)
	}
	decodeSpan.Int("insts_out", int64(machInsts)).Int("blocks_out", int64(len(mbs))).End()

	liftSpan := l.Opts.Trace.Start("lift").Int("insts_in", int64(machInsts))
	f, err := l.liftBlocks(addr, name, sig, mbs)
	if err != nil {
		liftSpan.EndErr(err)
		return nil, err
	}
	liftSpan.Int("ir_values_out", int64(f.NumInsts())).End()
	return f, nil
}

// liftBlocks translates the discovered machine blocks into an IR function.
func (l *Lifter) liftBlocks(addr uint64, name string, sig abi.Signature, mbs []*machBlock) (*ir.Func, error) {
	callee := l.Declare(addr, name, sig)
	f := callee.Fn
	if len(f.Blocks) > 0 {
		return nil, fmt.Errorf("lift: function %s at %#x already lifted", name, addr)
	}
	l.b = ir.NewBuilder(f)
	l.blockIR = make(map[uint64]*ir.Block)

	// Sort blocks by address with the entry block first.
	sort.Slice(mbs, func(i, j int) bool {
		if mbs[i].start == addr {
			return true
		}
		if mbs[j].start == addr {
			return false
		}
		return mbs[i].start < mbs[j].start
	})

	flagLiveness(mbs)
	lifts := make([]*blockLift, len(mbs))
	byAddr := make(map[uint64]*blockLift, len(mbs))
	for i, mb := range mbs {
		bl := &blockLift{mb: mb, irb: f.NewBlock(fmt.Sprintf("bb_%x", mb.start))}
		// Each machine instruction expands to a handful of IR instructions;
		// start the slice at that scale.
		bl.irb.Insts = make([]*ir.Inst, 0, 4*len(mb.insts))
		bl.st = newBlockState(bl)
		lifts[i] = bl
		byAddr[mb.start] = bl
		l.blockIR[mb.start] = bl.irb
	}

	// Synthetic entry: virtual stack plus parameter setup, then a branch to
	// the first machine block. This lets the machine entry block carry phis
	// when it is also a loop target.
	entrySt := newState()
	l.b.SetBlock(f.Blocks[0]) // the builder created "entry" first
	l.setupEntry(entrySt, f, sig)
	l.b.Br(byAddr[addr].irb)

	// Translate instructions block by block; reads create entry phis.
	for _, bl := range lifts {
		l.b.SetBlock(bl.irb)
		s := bl.st
		for k := range bl.mb.insts {
			in := &bl.mb.insts[k]
			s.dead = bl.mb.dead[k]
			if err := l.translate(s, in, sig); err != nil {
				return nil, err
			}
			s.clobberDead()
		}
		// Fall-through edge if the block did not end in a terminator.
		if bl.irb.Term() == nil {
			if bl.mb.fall == 0 {
				return nil, fmt.Errorf("lift: block %#x has no successor", bl.mb.start)
			}
			l.b.Br(l.blockIR[bl.mb.fall])
		}
	}

	byIR := make(map[*ir.Block]*blockLift, len(lifts))
	for _, bl := range lifts {
		byIR[bl.irb] = bl
	}
	predsOf := f.Preds()

	// Close the entry phis over the CFG: a predecessor that passes a group
	// through untouched needs that group's entry phis too.
	work := append([]*blockLift(nil), lifts...)
	for len(work) > 0 {
		bl := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range predsOf[bl.irb] {
			pl, ok := byIR[p]
			if !ok {
				continue // synthetic entry: nothing pending
			}
			need := bl.entered & pl.st.pending
			if need == 0 {
				continue
			}
			for g := 0; g < numGroups; g++ {
				if need&(1<<uint(g)) != 0 {
					pl.st.enter(g)
				}
			}
			work = append(work, pl)
		}
	}

	// Wire phis: place each block's phis at its head in slot order and
	// connect them to the predecessor states, materializing facet
	// conversions at predecessor ends when needed.
	for _, bl := range lifts {
		preds := predsOf[bl.irb]
		var head []*ir.Inst
		for slot, phi := range bl.phis {
			if phi == nil {
				continue
			}
			head = append(head, phi)
			// One incoming edge per predecessor: size the phi up front.
			phi.Args = make([]ir.Value, 0, len(preds))
			phi.Incoming = make([]*ir.Block, 0, len(preds))
			for _, p := range preds {
				st := entrySt
				if pl, ok := byIR[p]; ok {
					st = pl.st
				}
				ir.AddIncoming(phi, l.predValue(p, st, slot), p)
			}
		}
		if len(head) > 0 {
			bl.irb.Insts = append(head, bl.irb.Insts...)
		}
	}
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("lift: generated invalid IR: %w", err)
	}
	return f, nil
}

// predValue fetches (or materializes) the value of a phi slot at the end of
// predecessor block p, whose final state is st.
func (l *Lifter) predValue(p *ir.Block, st *state, slot int) ir.Value {
	if slot >= flagSlot {
		return st.readFlag(slot - flagSlot)
	}
	r, k := slot/slotsPerReg, slot%slotsPerReg
	if k < len(gprPhiFacets) {
		fc := gprPhiFacets[k]
		if v, ok := st.gprFacets(x86.Reg(r))[fc]; ok {
			return v
		}
		return l.atBlockEnd(p, func() ir.Value { return l.readGPRFacet(st, x86.Reg(r), fc) })
	}
	fc := xmmPhiFacets[k-len(gprPhiFacets)]
	if v, ok := st.xmmFacets(r)[fc]; ok {
		return v
	}
	return l.atBlockEnd(p, func() ir.Value { return l.readXMMFacet(st, x86.XMM0+x86.Reg(r), fc) })
}

// atBlockEnd runs fn with the builder positioned before b's terminator and
// returns its result.
func (l *Lifter) atBlockEnd(b *ir.Block, fn func() ir.Value) ir.Value {
	saved := l.b.Cur
	term := b.Insts[len(b.Insts)-1]
	b.Insts = b.Insts[:len(b.Insts)-1]
	l.b.SetBlock(b)
	v := fn()
	b.Insts = append(b.Insts, term)
	l.b.SetBlock(saved)
	return v
}

// setupEntry initializes the register state from the function parameters
// and allocates the virtual stack (Sections III.A and III.F).
func (l *Lifter) setupEntry(s *state, f *ir.Func, sig abi.Signature) {
	// Virtual stack: the red zone below the initial RSP needs headroom.
	stack := l.b.Alloca(ir.I8, l.Opts.StackSize)
	stack.Nam = "vstack"
	top := l.b.GEP(ir.I8, stack, ir.Int(ir.I64, uint64(l.Opts.StackSize-128)))
	top.Nam = "rsp.init"
	rsp := s.defGPR(x86.RSP)
	rsp[FPtr] = top
	rsp[FI64] = l.b.PtrToInt(top, ir.I64)

	for _, loc := range sig.Locations() {
		p := f.Params[loc.Index]
		if loc.IsFP {
			x := loc.Reg - x86.XMM0
			vec := l.b.InsertElement(ir.UndefOf(ir.VecOf(ir.Double, 2)), p, 0)
			m := s.defXMM(int(x))
			m[FV2F64] = vec
			m[FF64] = p
			m[FI128] = l.b.Bitcast(vec, ir.I128)
			continue
		}
		m := s.defGPR(loc.Reg)
		switch sig.Params[loc.Index] {
		case abi.ClassPtr:
			m[FPtr] = p
			m[FI64] = l.b.PtrToInt(p, ir.I64)
		default:
			m[FI64] = p
		}
	}
}
