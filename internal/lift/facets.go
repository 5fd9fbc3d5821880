// Package lift converts x86-64 machine code into the ir package's SSA form,
// implementing Section III of the paper: function-level lifting, basic-block
// discovery with splitting/de-duplication, a register facet model with a
// facet cache, per-flag i1 modelling with a flag cache for cmp, GEP-based
// memory operand reconstruction with a global-base heuristic, segment
// address spaces, and a virtual stack allocated via alloca.
package lift

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/x86"
)

// Facet identifies one view of an architectural register, as in Figure 4 of
// the paper: general purpose registers can be read as i64/i32/i16/i8 or as a
// pointer, SSE registers as i128, scalar float/double, or vectors.
type Facet uint8

// Register facets.
const (
	FI64 Facet = iota // canonical GPR value
	FI32
	FI16
	FI8
	FI8H // high byte (ah..bh)
	FPtr // pointer facet (i8*)

	FI128 Facet = iota + 10 // canonical SSE value
	FF64
	FF32
	FV2F64
	FV4F32
	FV2I64
	FV4I32
)

var facetNames = map[Facet]string{
	FI64: "i64", FI32: "i32", FI16: "i16", FI8: "i8", FI8H: "i8h", FPtr: "ptr",
	FI128: "i128", FF64: "f64", FF32: "f32",
	FV2F64: "v2f64", FV4F32: "v4f32", FV2I64: "v2i64", FV4I32: "v4i32",
}

// String names the facet for diagnostics.
func (f Facet) String() string { return facetNames[f] }

// Type returns the IR type of a facet.
func (f Facet) Type() *ir.Type {
	switch f {
	case FI64:
		return ir.I64
	case FI32:
		return ir.I32
	case FI16:
		return ir.I16
	case FI8, FI8H:
		return ir.I8
	case FPtr:
		return ir.PtrTo(ir.I8)
	case FI128:
		return ir.I128
	case FF64:
		return ir.Double
	case FF32:
		return ir.Float
	case FV2F64:
		return ir.VecOf(ir.Double, 2)
	case FV4F32:
		return ir.VecOf(ir.Float, 4)
	case FV2I64:
		return ir.VecOf(ir.I64, 2)
	case FV4I32:
		return ir.VecOf(ir.I32, 2*2)
	}
	return ir.Void
}

// gprFacetOfSize maps an access width to the matching GPR facet.
func gprFacetOfSize(size uint8) Facet {
	switch size {
	case 1:
		return FI8
	case 2:
		return FI16
	case 4:
		return FI32
	}
	return FI64
}

// flag indices into the state's flag array; flag i is bit i of an
// x86.FlagSet.
const (
	fCF = iota
	fPF
	fAF
	fZF
	fSF
	fOF
	numFlags
)

var flagNames = [numFlags]string{"cf", "pf", "af", "zf", "sf", "of"}

// flagCache remembers the operands of the most recent cmp/sub so that signed
// and unsigned conditions can be reconstructed as a single icmp (Figure 6).
// When both operands also carry pointer facets, those are recorded so that
// equality and unsigned orderings become pointer comparisons — keeping loops
// over arrays on a single pointer induction chain.
type flagCache struct {
	valid      bool
	a, b       ir.Value
	aPtr, bPtr ir.Value
}

// state is the per-basic-block register mapping from architectural state to
// SSA values, as described in Section III.C.
//
// The values a block inherits from its predecessors are merged through entry
// phis, created on demand as in Braun et al.'s SSA construction (CC 2013):
// a block starts with every register and flag pending, that is, at its entry
// phi but with no phi built yet. The first read of a pending register builds
// its phis; a write of the whole register only ends the pending state. All
// access to gpr, xmm and flag goes through the accessors below so that no
// read sees a pending register's empty map.
type state struct {
	gpr  [16]map[Facet]ir.Value
	xmm  [16]map[Facet]ir.Value
	flag [numFlags]ir.Value
	fc   flagCache
	// dead holds the flags the instruction being translated writes that no
	// later instruction reads before they are written again. Its zero value
	// means all live, so only the function lifter, which runs flagLiveness,
	// skips flag IR.
	dead x86.FlagSet
	// pending has bit g set while entry group g (see groupGPR) still holds
	// its block-entry value and has no phi. Only machine block states have
	// pending groups; blk receives the phis they create.
	pending uint64
	blk     *blockLift
}

// Entry groups are the units entry phis are created in: group r < 16 is
// GPR r, groupXMM+r is XMM register r and groupFlag+i is flag i.
const (
	groupGPR  = 0
	groupXMM  = 16
	groupFlag = 32
	numGroups = groupFlag + numFlags
)

func newState() *state {
	s := &state{}
	for i := range s.gpr {
		s.gpr[i] = make(map[Facet]ir.Value, 4)
		s.xmm[i] = make(map[Facet]ir.Value, 4)
	}
	return s
}

// newBlockState returns the state at the head of a machine block: every
// group pending.
func newBlockState(bl *blockLift) *state {
	s := newState()
	s.pending = 1<<numGroups - 1
	s.blk = bl
	return s
}

// enter creates the entry phis of group g: both GPR facets, all three XMM
// facets, or the one flag. Every facet of a register gets its phi so that
// readGPRFacet and readXMMFacet find the same facets they would if all
// phis existed from the start.
func (s *state) enter(g int) {
	s.pending &^= 1 << uint(g)
	bl := s.blk
	bl.entered |= 1 << uint(g)
	switch {
	case g < groupXMM:
		r := g - groupGPR
		for k, fc := range gprPhiFacets {
			name := fmt.Sprintf("%s.%s.%x", x86.Reg(r).Name(8), fc, bl.mb.start)
			s.gpr[r][fc] = bl.newPhi(r*slotsPerReg+k, fc.Type(), name)
		}
	case g < groupFlag:
		r := g - groupXMM
		for k, fc := range xmmPhiFacets {
			name := fmt.Sprintf("xmm%d.%s.%x", r, fc, bl.mb.start)
			s.xmm[r][fc] = bl.newPhi(r*slotsPerReg+len(gprPhiFacets)+k, fc.Type(), name)
		}
	default:
		i := g - groupFlag
		name := fmt.Sprintf("%s.%x", flagNames[i], bl.mb.start)
		s.flag[i] = bl.newPhi(flagSlot+i, ir.I1, name)
	}
}

// gprFacets returns the facet map of a GPR for reading, creating its entry
// phis if it is pending.
func (s *state) gprFacets(r x86.Reg) map[Facet]ir.Value {
	if s.pending&(1<<uint(groupGPR+r)) != 0 {
		s.enter(groupGPR + int(r))
	}
	return s.gpr[r]
}

// defGPR returns the emptied facet map of a GPR whose whole value is about
// to be replaced.
func (s *state) defGPR(r x86.Reg) map[Facet]ir.Value {
	s.pending &^= 1 << uint(groupGPR+r)
	m := s.gpr[r]
	clearFacets(m)
	return m
}

// xmmFacets returns the facet map of SSE register x (0-15) for reading,
// creating its entry phis if it is pending.
func (s *state) xmmFacets(x int) map[Facet]ir.Value {
	if s.pending&(1<<uint(groupXMM+x)) != 0 {
		s.enter(groupXMM + x)
	}
	return s.xmm[x]
}

// defXMM returns the emptied facet map of SSE register x (0-15) whose whole
// value is about to be replaced.
func (s *state) defXMM(x int) map[Facet]ir.Value {
	s.pending &^= 1 << uint(groupXMM+x)
	m := s.xmm[x]
	clearFacets(m)
	return m
}

// readFlag returns a flag value, creating its entry phi if it is pending;
// a flag no instruction defined reads as undef.
func (s *state) readFlag(i int) ir.Value {
	if s.pending&(1<<uint(groupFlag+i)) != 0 {
		s.enter(groupFlag + i)
	}
	if s.flag[i] == nil {
		return ir.UndefOf(ir.I1)
	}
	return s.flag[i]
}

// setFlag defines a flag.
func (s *state) setFlag(i int, v ir.Value) {
	s.pending &^= 1 << uint(groupFlag+i)
	s.flag[i] = v
}

// clobberDead sets the dead flags the current instruction writes to undef,
// so a written flag nothing reads carries no IR.
func (s *state) clobberDead() {
	for i, d := 0, s.dead; d != 0; i, d = i+1, d>>1 {
		if d&1 != 0 {
			s.setFlag(i, ir.UndefOf(ir.I1))
		}
	}
}

// killFlags invalidates the flag cache; callers must also set flag values.
func (s *state) killFlags() { s.fc = flagCache{} }

// setFlagsUndef marks all six flags undefined (after instructions whose
// flag effects the lifter does not model precisely).
func (s *state) setFlagsUndef() {
	for i := 0; i < numFlags; i++ {
		s.setFlag(i, ir.UndefOf(ir.I1))
	}
	s.killFlags()
}

// readGPRFacet returns the SSA value of one facet of a GPR, deriving and
// caching it from the canonical i64 value if necessary.
func (l *Lifter) readGPRFacet(s *state, r x86.Reg, f Facet) ir.Value {
	m := s.gprFacets(r)
	if v, ok := m[f]; ok && (l.Opts.FacetCache || f == FI64) {
		return v
	}
	canon, ok := m[FI64]
	if !ok {
		// Register never written: undef, as in the paper.
		canon = ir.UndefOf(ir.I64)
		m[FI64] = canon
	}
	var v ir.Value
	switch f {
	case FI64:
		v = canon
	case FI32, FI16, FI8:
		v = l.b.Trunc(canon, f.Type())
	case FI8H:
		v = l.b.Trunc(l.b.LShr(canon, ir.Int(ir.I64, 8)), ir.I8)
	case FPtr:
		v = l.b.IntToPtr(canon, ir.PtrTo(ir.I8))
	}
	if l.Opts.FacetCache {
		m[f] = v
	}
	return v
}

// writeGPR updates a GPR with a value of the given access size, modelling
// the x86 zero/merge semantics (Figure 4a) and maintaining the canonical
// i64 facet. ptr optionally carries a pointer facet for the same value.
func (l *Lifter) writeGPR(s *state, r x86.Reg, size uint8, v ir.Value, ptr ir.Value) {
	if r.IsHighByte() {
		parent := r.Parent()
		old := l.readGPRFacet(s, parent, FI64)
		cleared := l.b.And(old, ir.Int(ir.I64, ^uint64(0xFF00)))
		sh := l.b.Shl(l.b.ZExt(v, ir.I64), ir.Int(ir.I64, 8))
		merged := l.b.Or(cleared, sh)
		m := s.defGPR(parent)
		m[FI64] = merged
		m[FI8H] = v
		return
	}
	switch size {
	case 8:
		m := s.defGPR(r)
		m[FI64] = v
		if ptr != nil {
			m[FPtr] = ptr
		}
	case 4:
		canon := l.b.ZExt(v, ir.I64) // 32-bit writes zero the upper half
		m := s.defGPR(r)
		m[FI64] = canon
		m[FI32] = v
	case 2, 1:
		mask := uint64(0xFFFF)
		f := FI16
		if size == 1 {
			mask = 0xFF
			f = FI8
		}
		old := l.readGPRFacet(s, r, FI64)
		cleared := l.b.And(old, ir.Int(ir.I64, ^mask))
		merged := l.b.Or(cleared, l.b.ZExt(v, ir.I64))
		m := s.defGPR(r)
		m[FI64] = merged
		m[f] = v
	}
}

// readXMMFacet returns one facet of an SSE register, deriving it through the
// canonical i128 (or a cached vector facet) as in Figure 4b/4c.
func (l *Lifter) readXMMFacet(s *state, r x86.Reg, f Facet) ir.Value {
	m := s.xmmFacets(int(r - x86.XMM0))
	if v, ok := m[f]; ok && (l.Opts.FacetCache || f == FI128) {
		return v
	}
	// The scalar facets are extracted from the matching vector facet; the
	// vector facets are bitcast from the canonical integer.
	var v ir.Value
	switch f {
	case FI128:
		// Prefer rebuilding from a cached vector facet.
		if l.Opts.FacetCache {
			for _, vf := range []Facet{FV2F64, FV4F32, FV2I64, FV4I32} {
				if cv, ok := m[vf]; ok {
					v = l.b.Bitcast(cv, ir.I128)
					m[FI128] = v
					return v
				}
			}
		}
		cv, ok := m[FI128]
		if !ok {
			cv = ir.UndefOf(ir.I128)
			m[FI128] = cv
		}
		return cv
	case FV2F64, FV4F32, FV2I64, FV4I32:
		v = l.b.Bitcast(l.readXMMFacet(s, r, FI128), f.Type())
	case FF64:
		vec := l.readXMMFacet(s, r, FV2F64)
		v = l.b.ExtractElement(vec, 0)
	case FF32:
		vec := l.readXMMFacet(s, r, FV4F32)
		v = l.b.ExtractElement(vec, 0)
	}
	if l.Opts.FacetCache {
		m[f] = v
	}
	return v
}

// writeXMM replaces the full contents of an SSE register with the given
// facet value, updating the canonical form.
func (l *Lifter) writeXMM(s *state, r x86.Reg, f Facet, v ir.Value) {
	m := s.defXMM(int(r - x86.XMM0))
	if f == FI128 {
		m[FI128] = v
		return
	}
	m[FI128] = l.b.Bitcast(v, ir.I128)
	if l.Opts.FacetCache {
		m[f] = v
	}
}

// writeXMMScalarF64 writes the low double of an SSE register. When preserve
// is set the upper lane is kept (standard SSE scalar semantics); otherwise
// it is zeroed (movsd-from-memory, movq).
func (l *Lifter) writeXMMScalarF64(s *state, r x86.Reg, v ir.Value, preserve bool) {
	var vec ir.Value
	if preserve {
		vec = l.b.InsertElement(l.readXMMFacet(s, r, FV2F64), v, 0)
	} else {
		vec = l.b.InsertElement(ir.ZeroOf(ir.VecOf(ir.Double, 2)), v, 0)
	}
	m := s.defXMM(int(r - x86.XMM0))
	m[FI128] = l.b.Bitcast(vec, ir.I128)
	if l.Opts.FacetCache {
		m[FV2F64] = vec
		m[FF64] = v
	}
}

// writeXMMScalarF32 writes the low float lane.
func (l *Lifter) writeXMMScalarF32(s *state, r x86.Reg, v ir.Value, preserve bool) {
	var vec ir.Value
	if preserve {
		vec = l.b.InsertElement(l.readXMMFacet(s, r, FV4F32), v, 0)
	} else {
		vec = l.b.InsertElement(ir.ZeroOf(ir.VecOf(ir.Float, 4)), v, 0)
	}
	m := s.defXMM(int(r - x86.XMM0))
	m[FI128] = l.b.Bitcast(vec, ir.I128)
	if l.Opts.FacetCache {
		m[FV4F32] = vec
		m[FF32] = v
	}
}

func clearFacets(m map[Facet]ir.Value) {
	for k := range m {
		delete(m, k)
	}
}

// facetErr builds a descriptive lifting error.
func facetErr(in *x86.Inst, format string, args ...interface{}) error {
	return fmt.Errorf("lift: %#x %v: %s", in.Addr, in, fmt.Sprintf(format, args...))
}
