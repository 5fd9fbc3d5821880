package opt

import (
	"repro/internal/ir"
)

// InstCombine performs local algebraic simplifications plus constant
// folding, mirroring the subset of LLVM's instcombine the lifted code
// depends on: cast chains (bitcast/zext/trunc, inttoptr/ptrtoint), vector
// insert/extract folding (which eliminates the facet-model casts), identity
// arithmetic, select and phi simplification, and — with fast-math — FP
// identities such as x+0 and x*1.
//
// Deliberately absent, matching the paper's observation in Section III.D:
// recombining bitwise operations on individual flag i1 values back into a
// signed comparison. Only the lifter's flag cache produces the direct icmp.
//
// Replacements are substituted into operands eagerly during the scan, so a
// depth-k constant-folding cascade collapses in one pass instead of needing
// k full rescans, and dead originals are swept by a single DCE at the end
// instead of one per inner iteration. The sweep's removal count is returned
// separately so callers can attribute it to DCE rather than instcombine.
func InstCombine(f *ir.Func, fastMath bool) (changed, swept int) {
	repl := make(map[ir.Value]ir.Value)
	resolve := func(v ir.Value) ir.Value {
		seen := 0
		for {
			n, ok := repl[v]
			if !ok {
				return v
			}
			v = n
			seen++
			if seen > len(repl)+1 {
				return v // defensive: break replacement cycles
			}
		}
	}
	for {
		newRepl, mutated := 0, 0
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if _, dead := repl[in]; dead {
					continue // already replaced; DCE sweeps it at the end
				}
				// Substitute accumulated replacements into the operands
				// before matching, so this pass sees the folded form.
				for i, a := range in.Args {
					if r := resolve(a); r != a {
						in.Args[i] = r
					}
				}
				if v := foldConst(in); v != nil {
					repl[in] = v
					newRepl++
					continue
				}
				// Snapshot the fields every in-place rewrite touches, so a
				// nil return from combine still reveals whether it changed
				// the instruction (and a rescan may find new patterns).
				op, pred, nargs := in.Op, in.Pred, len(in.Args)
				var a0, a1 ir.Value
				if nargs > 0 {
					a0 = in.Args[0]
				}
				if nargs > 1 {
					a1 = in.Args[1]
				}
				v := combine(in, fastMath)
				in.Parent = b // in-place rewrites reset metadata
				if v != nil && v != ir.Value(in) {
					repl[in] = v
					newRepl++
					continue
				}
				if in.Op != op || in.Pred != pred || len(in.Args) != nargs ||
					(nargs > 0 && in.Args[0] != a0) || (nargs > 1 && in.Args[1] != a1) {
					mutated++
				}
			}
		}
		changed += newRepl + mutated
		// Stop once a full scan neither replaced nor rewrote anything; at
		// that point every use has also been resolved through repl.
		if newRepl == 0 && mutated == 0 {
			break
		}
	}
	if changed > 0 {
		swept = DCE(f)
	}
	return changed, swept
}

func isZeroConst(v ir.Value) bool {
	switch c := v.(type) {
	case *ir.Zero:
		return true
	case *ir.ConstInt:
		return c.V == 0 && c.Hi == 0
	case *ir.ConstFloat:
		return c.V == 0
	}
	return false
}

func intConst(v ir.Value, want uint64) bool {
	c, ok := v.(*ir.ConstInt)
	return ok && c.V == want && c.Hi == 0
}

func fpConst(v ir.Value, want float64) bool {
	c, ok := v.(*ir.ConstFloat)
	return ok && c.V == want
}

// combine returns a simplified replacement for in, or nil.
func combine(in *ir.Inst, fastMath bool) ir.Value {
	arg := func(i int) ir.Value { return in.Args[i] }
	argInst := func(i int) *ir.Inst {
		if x, ok := in.Args[i].(*ir.Inst); ok {
			return x
		}
		return nil
	}

	// Canonicalize: constants move to the right of commutative operations
	// (and icmp swaps its predicate), so later patterns match uniformly.
	// fadd and fmul commute only under fast-math: with two NaN operands the
	// hardware returns the first one's payload, so a strict pipeline must
	// keep the operand order it was given.
	switch in.Op {
	case ir.OpFAdd, ir.OpFMul:
		if !fastMath && !in.FastMath {
			break
		}
		fallthrough
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		if len(in.Args) == 2 {
			if _, lc := asConstant(in.Args[0]); lc {
				if _, rc := asConstant(in.Args[1]); !rc {
					in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				}
			}
		}
	case ir.OpICmp:
		if _, lc := asConstant(in.Args[0]); lc {
			if _, rc := asConstant(in.Args[1]); !rc {
				in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
				in.Pred = in.Pred.Swap()
			}
		}
	}

	switch in.Op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if !in.Ty.IsVec() {
			if isZeroConst(arg(1)) {
				return arg(0)
			}
			if isZeroConst(arg(0)) {
				return arg(1)
			}
		}
		if in.Op == ir.OpOr && in.Ty.Equal(ir.I1) {
			if v := combineICmpPair(in, true); v != nil {
				return v
			}
		}
		if in.Op == ir.OpXor && arg(0) == arg(1) {
			return ir.Int(in.Ty, 0)
		}
		// Reassociate (x + c1) + c2 -> x + (c1+c2).
		if in.Op == ir.OpAdd && !in.Ty.IsVec() && in.Ty.Bits <= 64 {
			if c2, ok := constOf(arg(1)); ok {
				if a0 := argInst(0); a0 != nil && a0.Op == ir.OpAdd {
					if c1, ok := constOf(a0.Args[1]); ok {
						ni := &ir.Inst{Op: ir.OpAdd, Ty: in.Ty, Nam: in.Nam,
							Args: []ir.Value{a0.Args[0], ir.Int(in.Ty, c1.V+c2.V)}}
						*in = *ni
						return nil
					}
				}
			}
		}
	case ir.OpSub:
		if !in.Ty.IsVec() && isZeroConst(arg(1)) {
			return arg(0)
		}
		if arg(0) == arg(1) {
			return ir.Int(in.Ty, 0)
		}
	case ir.OpMul:
		if !in.Ty.IsVec() {
			if intConst(arg(1), 1) {
				return arg(0)
			}
			if intConst(arg(0), 1) {
				return arg(1)
			}
			if isZeroConst(arg(0)) || isZeroConst(arg(1)) {
				return ir.Int(in.Ty, 0)
			}
		}
	case ir.OpAnd:
		if arg(0) == arg(1) {
			return arg(0)
		}
		if in.Ty.Equal(ir.I1) {
			if v := combineICmpPair(in, false); v != nil {
				return v
			}
		}
		if !in.Ty.IsVec() && in.Ty.Bits <= 64 {
			all := maskW(^uint64(0), in.Ty.Bits)
			if intConst(arg(1), all) {
				return arg(0)
			}
			if intConst(arg(0), all) {
				return arg(1)
			}
		}
	case ir.OpShl, ir.OpLShr, ir.OpAShr:
		if !in.Ty.IsVec() && isZeroConst(arg(1)) {
			return arg(0)
		}

	case ir.OpFAdd:
		if fastMath || in.FastMath {
			if fpConst(arg(1), 0) {
				return arg(0)
			}
			if fpConst(arg(0), 0) {
				return arg(1)
			}
			// Distributive factoring: (a*C) + (b*C) -> (a+b)*C, the
			// reassociation that turns the specialized generic stencil into
			// the hand-written form (one multiply instead of one per point).
			m0, m1 := argInst(0), argInst(1)
			if m0 != nil && m1 != nil && m0.Op == ir.OpFMul && m1.Op == ir.OpFMul &&
				!in.Ty.IsVec() {
				c0, ok0 := fconstOf(m0.Args[1])
				c1, ok1 := fconstOf(m1.Args[1])
				if ok0 && ok1 && c0.V == c1.V {
					sum := &ir.Inst{Op: ir.OpFAdd, Ty: in.Ty, Nam: in.Nam + ".f",
						Args: []ir.Value{m0.Args[0], m1.Args[0]}, FastMath: true, Parent: in.Parent}
					// Splice the new add right before this instruction.
					blk := in.Parent
					for i, x := range blk.Insts {
						if x == in {
							blk.Insts = append(blk.Insts[:i], append([]*ir.Inst{sum}, blk.Insts[i:]...)...)
							break
						}
					}
					*in = ir.Inst{Op: ir.OpFMul, Ty: in.Ty, Nam: in.Nam, FastMath: true,
						Args: []ir.Value{sum, m0.Args[1]}, Parent: blk}
					return nil
				}
			}
		}
	case ir.OpFSub:
		if (fastMath || in.FastMath) && fpConst(arg(1), 0) {
			return arg(0)
		}
	case ir.OpFMul:
		if fastMath || in.FastMath {
			if fpConst(arg(1), 1) {
				return arg(0)
			}
			if fpConst(arg(0), 1) {
				return arg(1)
			}
			if fpConst(arg(1), 0) || fpConst(arg(0), 0) {
				return ir.FltT(in.Ty, 0)
			}
		}
	case ir.OpFDiv:
		if (fastMath || in.FastMath) && fpConst(arg(1), 1) {
			return arg(0)
		}

	case ir.OpSelect:
		if arg(1) == arg(2) {
			return arg(1)
		}

	case ir.OpTrunc:
		// trunc(zext x) -> x or narrower ext/trunc.
		if a := argInst(0); a != nil && (a.Op == ir.OpZExt || a.Op == ir.OpSExt) {
			src := a.Args[0]
			if src.Type().Equal(in.Ty) {
				return src
			}
			if src.Type().Bits > in.Ty.Bits {
				*in = ir.Inst{Op: ir.OpTrunc, Ty: in.Ty, Nam: in.Nam, Args: []ir.Value{src}}
				return nil
			}
		}
	case ir.OpZExt, ir.OpSExt:
		// ext(trunc x) where x already has the target width and the
		// truncated bits are re-extended: only safe for zext(trunc) when
		// the value is known to fit; skip. But ext(ext(x)) composes.
		if a := argInst(0); a != nil && a.Op == in.Op {
			*in = ir.Inst{Op: in.Op, Ty: in.Ty, Nam: in.Nam, Args: []ir.Value{a.Args[0]}}
			return nil
		}
		// zext(icmp) used by setcc then compared against 0 is handled via
		// the icmp combine below.

	case ir.OpBitcast:
		if in.Args[0].Type().Equal(in.Ty) {
			return arg(0)
		}
		if a := argInst(0); a != nil && a.Op == ir.OpBitcast {
			if a.Args[0].Type().Equal(in.Ty) {
				return a.Args[0]
			}
			*in = ir.Inst{Op: ir.OpBitcast, Ty: in.Ty, Nam: in.Nam, Args: []ir.Value{a.Args[0]}}
			return nil
		}
		if u, ok := arg(0).(*ir.Undef); ok {
			_ = u
			return ir.UndefOf(in.Ty)
		}

	case ir.OpIntToPtr:
		if a := argInst(0); a != nil && a.Op == ir.OpPtrToInt {
			src := a.Args[0]
			if src.Type().Equal(in.Ty) {
				return src
			}
			*in = ir.Inst{Op: ir.OpBitcast, Ty: in.Ty, Nam: in.Nam, Args: []ir.Value{src}}
			return nil
		}
	case ir.OpPtrToInt:
		if a := argInst(0); a != nil && a.Op == ir.OpIntToPtr {
			if a.Args[0].Type().Equal(in.Ty) {
				return a.Args[0]
			}
		}
		// Globals in this system have fixed addresses in the emulated
		// address space, so their addresses are link-time constants, and
		// inttoptr(const) chains (specialized lea arithmetic) fold the same
		// way. This is what lets specialization see through pointers.
		if addr, ok := constPtrValue(arg(0)); ok {
			return ir.Int(in.Ty, addr)
		}
		if a := argInst(0); a != nil && a.Op == ir.OpBitcast && a.Args[0].Type().IsPtr() {
			*in = ir.Inst{Op: ir.OpPtrToInt, Ty: in.Ty, Nam: in.Nam, Args: []ir.Value{a.Args[0]}}
			return nil
		}

	case ir.OpGEP:
		// gep(p, 0) -> p when the types line up.
		if isZeroConst(arg(1)) && in.Args[0].Type().Equal(in.Ty) {
			return arg(0)
		}
		// gep(bitcast(gep(p, a)), b) chains of the same element type fold.
		if a := argInst(0); a != nil && a.Op == ir.OpGEP && a.ElemTy.Equal(in.ElemTy) {
			c1, ok1 := constOf(a.Args[1])
			c2, ok2 := constOf(in.Args[1])
			if ok1 && ok2 {
				*in = ir.Inst{Op: ir.OpGEP, Ty: in.Ty, Nam: in.Nam, ElemTy: in.ElemTy,
					Args: []ir.Value{a.Args[0], ir.Int(ir.I64, c1.V+c2.V)}}
				return nil
			}
		}

	case ir.OpExtractElement:
		idx, ok := constOf(arg(1))
		if !ok {
			return nil
		}
		src := argInst(0)
		if src == nil {
			return nil
		}
		switch src.Op {
		case ir.OpInsertElement:
			if i2, ok := constOf(src.Args[2]); ok {
				if i2.V == idx.V {
					return src.Args[1] // extract(insert(v, x, i), i) -> x
				}
				// extract a different lane: look through the insert.
				*in = ir.Inst{Op: ir.OpExtractElement, Ty: in.Ty, Nam: in.Nam,
					Args: []ir.Value{src.Args[0], arg(1)}}
				return nil
			}
		case ir.OpShuffleVector:
			sel := src.Mask[idx.V]
			if sel < 0 {
				return ir.UndefOf(in.Ty)
			}
			srcLen := src.Args[0].Type().Len
			from, lane := src.Args[0], sel
			if sel >= srcLen {
				from, lane = src.Args[1], sel-srcLen
			}
			*in = ir.Inst{Op: ir.OpExtractElement, Ty: in.Ty, Nam: in.Nam,
				Args: []ir.Value{from, ir.Int(ir.I32, uint64(lane))}}
			return nil
		case ir.OpBitcast:
			// extract(bitcast(bitcast-free vector of same shape)) -> direct.
			if src.Args[0].Type().Equal(in.Args[0].Type()) {
				*in = ir.Inst{Op: ir.OpExtractElement, Ty: in.Ty, Nam: in.Nam,
					Args: []ir.Value{src.Args[0], arg(1)}}
				return nil
			}
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
			// Scalarize: extract(fbinop(a, b), i) -> fbinop(extract a, extract b).
			// This is the key cleanup for the facet model's vector round trips.
			// Only do it when the operands are insert/shuffle-like so we
			// don't duplicate real vector work.
			return nil
		}

	case ir.OpInsertElement:
		// insert(insert(v, a, i), b, i) -> insert(v, b, i).
		if src := argInst(0); src != nil && src.Op == ir.OpInsertElement {
			i1, ok1 := constOf(src.Args[2])
			i2, ok2 := constOf(arg(2))
			if ok1 && ok2 && i1.V == i2.V {
				*in = ir.Inst{Op: ir.OpInsertElement, Ty: in.Ty, Nam: in.Nam,
					Args: []ir.Value{src.Args[0], arg(1), arg(2)}}
				return nil
			}
		}

	case ir.OpShuffleVector:
		// Identity shuffle of one vector.
		if in.Ty.Equal(in.Args[0].Type()) {
			id := true
			for i, m := range in.Mask {
				if m != i {
					id = false
					break
				}
			}
			if id {
				return arg(0)
			}
		}

	case ir.OpICmp:
		// icmp eq/ne (zext i1 x), 0 -> not x / x.
		if c, ok := constOf(arg(1)); ok && c.V == 0 {
			if a := argInst(0); a != nil && a.Op == ir.OpZExt && a.Args[0].Type().Equal(ir.I1) {
				if in.Pred == ir.PredNE {
					return a.Args[0]
				}
				if in.Pred == ir.PredEQ {
					*in = ir.Inst{Op: ir.OpXor, Ty: ir.I1, Nam: in.Nam,
						Args: []ir.Value{a.Args[0], ir.Bool(true)}}
					return nil
				}
			}
			// icmp slt (sub a, b), 0 would *not* be rewritten to icmp slt a, b
			// by LLVM (overflow); faithfully left alone.
		}
		if arg(0) == arg(1) {
			switch in.Pred {
			case ir.PredEQ, ir.PredSLE, ir.PredSGE, ir.PredULE, ir.PredUGE:
				return ir.Bool(true)
			case ir.PredNE, ir.PredSLT, ir.PredSGT, ir.PredULT, ir.PredUGT:
				return ir.Bool(false)
			}
		}

	case ir.OpPhi:
		// Trivial phi: all incoming equal (ignoring self-references).
		var uniq ir.Value
		for _, a := range in.Args {
			if a == ir.Value(in) {
				continue
			}
			if uniq == nil {
				uniq = a
			} else if !sameValue(uniq, a) {
				uniq = nil
				break
			}
		}
		if uniq != nil {
			return uniq
		}
	}
	return nil
}

// asConstant reports whether v is any constant-like value.
func asConstant(v ir.Value) (ir.Value, bool) {
	switch v.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.Zero, *ir.Undef:
		return v, true
	}
	return nil, false
}

// constPtrValue resolves pointer expressions whose address is a compile-time
// constant: globals with assigned addresses, inttoptr of constants, and
// constant-index gep/bitcast chains over either.
func constPtrValue(v ir.Value) (uint64, bool) {
	off := int64(0)
	for depth := 0; depth < 64; depth++ {
		switch x := v.(type) {
		case *ir.Global:
			if x.Addr != 0 {
				return x.Addr + uint64(off), true
			}
			return 0, false
		case *ir.Inst:
			switch x.Op {
			case ir.OpIntToPtr:
				if c, ok := constOf(x.Args[0]); ok {
					return c.V + uint64(off), true
				}
				return 0, false
			case ir.OpBitcast:
				if !x.Args[0].Type().IsPtr() {
					return 0, false
				}
				v = x.Args[0]
			case ir.OpGEP:
				c, ok := constOf(x.Args[1])
				if !ok {
					return 0, false
				}
				off += int64(c.V) * int64(x.ElemTy.Size())
				v = x.Args[0]
			default:
				return 0, false
			}
		default:
			return 0, false
		}
	}
	return 0, false
}

// combineICmpPair folds or/and of two comparisons over the same operands
// into one comparison with the union/intersection predicate (e.g.
// (a == b) | (a < b)  ->  a <= b), the cleanup LLVM applies to the lifted
// LE/GE condition reconstructions.
func combineICmpPair(in *ir.Inst, isOr bool) ir.Value {
	c0, ok0 := in.Args[0].(*ir.Inst)
	c1, ok1 := in.Args[1].(*ir.Inst)
	if !ok0 || !ok1 || c0.Op != ir.OpICmp || c1.Op != ir.OpICmp {
		return nil
	}
	if !sameValue(c0.Args[0], c1.Args[0]) || !sameValue(c0.Args[1], c1.Args[1]) {
		return nil
	}
	type key struct{ a, b ir.Pred }
	var table map[key]ir.Pred
	if isOr {
		table = map[key]ir.Pred{
			{ir.PredEQ, ir.PredSLT}: ir.PredSLE, {ir.PredSLT, ir.PredEQ}: ir.PredSLE,
			{ir.PredEQ, ir.PredSGT}: ir.PredSGE, {ir.PredSGT, ir.PredEQ}: ir.PredSGE,
			{ir.PredEQ, ir.PredULT}: ir.PredULE, {ir.PredULT, ir.PredEQ}: ir.PredULE,
			{ir.PredEQ, ir.PredUGT}: ir.PredUGE, {ir.PredUGT, ir.PredEQ}: ir.PredUGE,
			{ir.PredSLT, ir.PredSGT}: ir.PredNE, {ir.PredSGT, ir.PredSLT}: ir.PredNE,
		}
	} else {
		table = map[key]ir.Pred{
			{ir.PredSLE, ir.PredSGE}: ir.PredEQ, {ir.PredSGE, ir.PredSLE}: ir.PredEQ,
			{ir.PredULE, ir.PredUGE}: ir.PredEQ, {ir.PredUGE, ir.PredULE}: ir.PredEQ,
			{ir.PredNE, ir.PredSLE}: ir.PredSLT, {ir.PredSLE, ir.PredNE}: ir.PredSLT,
			{ir.PredNE, ir.PredSGE}: ir.PredSGT, {ir.PredSGE, ir.PredNE}: ir.PredSGT,
		}
	}
	p, ok := table[key{c0.Pred, c1.Pred}]
	if !ok {
		return nil
	}
	*in = ir.Inst{Op: ir.OpICmp, Ty: ir.I1, Pred: p, Nam: in.Nam,
		Args: []ir.Value{c0.Args[0], c0.Args[1]}, Parent: in.Parent}
	return nil
}

// sameValue reports whether two operands are the identical SSA value or
// structurally equal constants.
func sameValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	return argKey(a) == argKey(b)
}
