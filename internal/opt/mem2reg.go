package opt

import "repro/internal/ir"

// Mem2Reg promotes non-escaping allocas to SSA values. The lifter's virtual
// stack (Section III.F) is a single alloca accessed through constant-offset
// GEPs (push/pop, spill slots), so promotion proceeds slot-wise: every
// constant byte offset with consistently-typed accesses becomes one scalar
// variable, promoted with on-demand phi placement.
func Mem2Reg(f *ir.Func) int {
	changed := 0
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpAlloca {
				changed += promoteAlloca(f, in)
			}
		}
	}
	if changed > 0 {
		DCE(f)
	}
	return changed
}

// allocaUse is a load or store at a constant offset from the alloca.
type allocaUse struct {
	inst   *ir.Inst
	offset int64
	isLoad bool
	ty     *ir.Type
}

// collectAllocaUses gathers all accesses. ok is false if the alloca escapes
// (address used by anything but constant-offset load/store) or if offsets
// have inconsistent types or overlap.
func collectAllocaUses(f *ir.Func, a *ir.Inst) (uses []allocaUse, ok bool) {
	// derived maps pointer values to their constant offset from a.
	derived := map[ir.Value]int64{a: 0}
	// Iterate until closure: GEP/bitcast chains may appear in any order
	// within blocks that we visit out of dominance order.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				switch in.Op {
				case ir.OpGEP:
					if off, isD := derived[in.Args[0]]; isD {
						if _, done := derived[in]; done {
							continue
						}
						c, isC := constOf(in.Args[1])
						if !isC {
							return nil, false // variable index: give up
						}
						derived[in] = off + int64(c.V)*int64(in.ElemTy.Size())
						changed = true
					}
				case ir.OpBitcast:
					if off, isD := derived[in.Args[0]]; isD {
						if _, done := derived[in]; done {
							continue
						}
						derived[in] = off
						changed = true
					}
				}
			}
		}
	}
	// Validate all uses of derived pointers.
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for ai, arg := range in.Args {
				off, isD := derived[arg]
				if !isD {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && ai == 0:
					uses = append(uses, allocaUse{in, off, true, in.Ty})
				case in.Op == ir.OpStore && ai == 1:
					uses = append(uses, allocaUse{in, off, false, in.Args[0].Type()})
				case in.Op == ir.OpGEP && ai == 0, in.Op == ir.OpBitcast && ai == 0:
					// chain link, already handled
				default:
					return nil, false // escapes (ptrtoint, call, store-as-value, ...)
				}
			}
		}
	}
	// Check per-offset type consistency and non-overlap.
	slotTy := make(map[int64]*ir.Type)
	for _, u := range uses {
		if t, ok2 := slotTy[u.offset]; ok2 {
			if !t.Equal(u.ty) {
				return nil, false
			}
		} else {
			slotTy[u.offset] = u.ty
		}
	}
	for off, t := range slotTy {
		for off2, t2 := range slotTy {
			if off2 > off && off2 < off+int64(t.Size()) {
				_ = t2
				return nil, false // overlapping slots
			}
		}
	}
	return uses, true
}

func promoteAlloca(f *ir.Func, a *ir.Inst) int {
	uses, ok := collectAllocaUses(f, a)
	if !ok || len(uses) == 0 {
		return 0
	}
	byOffset := make(map[int64][]allocaUse)
	for _, u := range uses {
		byOffset[u.offset] = append(byOffset[u.offset], u)
	}
	n := 0
	for off, slotUses := range byOffset {
		n += promoteSlot(f, slotUses, off)
	}
	return n
}

// promoteSlot rewrites all loads/stores of one slot into SSA form.
func promoteSlot(f *ir.Func, uses []allocaUse, off int64) int {
	ty := uses[0].ty
	isUse := make(map[*ir.Inst]allocaUse, len(uses))
	for _, u := range uses {
		isUse[u.inst] = u
	}
	preds := f.Preds()

	// endVal caches the value live at the end of each block; entryVal the
	// value at its head (a phi for join blocks).
	endVal := make(map[*ir.Block]ir.Value)
	entryVal := make(map[*ir.Block]ir.Value)
	// lastStore is the last stored value in each block (nil if none).
	lastStore := make(map[*ir.Block]ir.Value)
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if u, isU := isUse[in]; isU && !u.isLoad {
				lastStore[b] = in.Args[0]
			}
		}
	}

	var valueAtEntry func(b *ir.Block) ir.Value
	var valueAtEnd func(b *ir.Block) ir.Value

	valueAtEnd = func(b *ir.Block) ir.Value {
		if v, ok := endVal[b]; ok {
			return v
		}
		if v := lastStore[b]; v != nil {
			endVal[b] = v
			return v
		}
		v := valueAtEntry(b)
		endVal[b] = v
		return v
	}

	valueAtEntry = func(b *ir.Block) ir.Value {
		if v, ok := entryVal[b]; ok {
			return v
		}
		ps := preds[b]
		if len(ps) == 0 {
			v := ir.UndefOf(ty)
			entryVal[b] = v
			return v
		}
		if len(ps) == 1 {
			// Break potential single-block cycles with a placeholder.
			entryVal[b] = ir.UndefOf(ty)
			v := valueAtEnd(ps[0])
			entryVal[b] = v
			return v
		}
		phi := &ir.Inst{Op: ir.OpPhi, Ty: ty, Nam: f.Nam + "slot", Parent: b}
		phi.Nam = freshPhiName(f)
		b.Insts = append([]*ir.Inst{phi}, b.Insts...)
		entryVal[b] = phi
		for _, p := range ps {
			ir.AddIncoming(phi, valueAtEnd(p), p)
		}
		return phi
	}

	// Rewrite loads and kill stores.
	repl := make(map[ir.Value]ir.Value)
	dead := make(map[*ir.Inst]bool)
	count := 0
	for _, b := range f.Blocks {
		var cur ir.Value
		for _, in := range b.Insts {
			u, isU := isUse[in]
			if !isU {
				continue
			}
			if u.isLoad {
				if cur != nil {
					repl[in] = cur
				} else {
					repl[in] = valueAtEntry(b)
				}
				dead[in] = true
				count++
			} else {
				cur = in.Args[0]
				dead[in] = true
				count++
			}
		}
	}
	replaceAll(f, repl)
	removeMarked(f, dead)
	return count
}

func freshPhiName(f *ir.Func) string {
	return "m2r" + itoa(f.UniqueSuffix())
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
