package opt

import (
	"fmt"

	"repro/internal/ir"
)

// InlineThreshold is the instruction-count limit below which callees are
// inlined even without the alwaysinline attribute, approximating LLVM -O3's
// aggressive inlining (Section III.B leaves inlining to the optimizer).
const InlineThreshold = 400

// Inline replaces direct calls in f with the callee bodies. Functions marked
// AlwaysInline (the Section IV parameter-fixation wrappers rely on this) are
// always inlined unless recursive; other defined functions are inlined when
// small. Returns the number of call sites inlined.
func Inline(f *ir.Func) int {
	count := 0
	for iter := 0; iter < 10; iter++ {
		site := findInlinableCall(f)
		if site == nil {
			return count
		}
		inlineCall(f, site)
		count++
	}
	return count
}

func findInlinableCall(f *ir.Func) *ir.Inst {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op != ir.OpCall {
				continue
			}
			callee := in.Callee
			if callee == f || len(callee.Blocks) == 0 {
				continue // recursive or declaration-only
			}
			if isRecursive(callee) {
				continue
			}
			if callee.AlwaysInline || callee.NumInsts() <= InlineThreshold {
				in.Parent = b
				return in
			}
		}
	}
	return nil
}

func isRecursive(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op == ir.OpCall && in.Callee == f {
				return true
			}
		}
	}
	return false
}

// inlineCall splices the callee body in place of one call site.
func inlineCall(f *ir.Func, call *ir.Inst) {
	callee := call.Callee
	host := call.Parent

	// Split the host block at the call.
	idx := -1
	for i, in := range host.Insts {
		if in == call {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	cont := f.NewBlock(host.Nam + ".cont")
	cont.Insts = append(cont.Insts, host.Insts[idx+1:]...)
	for _, in := range cont.Insts {
		in.Parent = cont
	}
	host.Insts = host.Insts[:idx]

	// Successor phis must now see cont as the predecessor.
	for _, s := range cont.Succs() {
		for _, in := range s.Insts {
			if in.Op != ir.OpPhi {
				break
			}
			for i, inc := range in.Incoming {
				if inc == host {
					in.Incoming[i] = cont
				}
			}
		}
	}

	// Clone callee blocks.
	vmap := make(map[ir.Value]ir.Value)
	for i, p := range callee.Params {
		vmap[p] = call.Args[i]
	}
	bmap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	for _, cb := range callee.Blocks {
		nb := f.NewBlock(fmt.Sprintf("inl.%s.%s", callee.Nam, cb.Nam))
		bmap[cb] = nb
	}
	// First pass: allocate instruction shells so forward references (phis)
	// resolve.
	imap := make(map[*ir.Inst]*ir.Inst)
	for _, cb := range callee.Blocks {
		nb := bmap[cb]
		for _, in := range cb.Insts {
			cp := *in
			cp.Parent = nb
			cp.Args = nil
			cp.Incoming = nil
			cp.Blocks = nil
			if cp.Nam != "" {
				cp.Nam = "inl." + cp.Nam + "." + itoa(f.UniqueSuffix())
			}
			imap[in] = &cp
			nb.Insts = append(nb.Insts, &cp)
		}
	}
	resolve := func(v ir.Value) ir.Value {
		if n, ok := vmap[v]; ok {
			return n
		}
		if in, ok := v.(*ir.Inst); ok {
			if n, ok2 := imap[in]; ok2 {
				return n
			}
		}
		return v
	}
	var retVals []ir.Value
	var retBlocks []*ir.Block
	for _, cb := range callee.Blocks {
		for _, in := range cb.Insts {
			cp := imap[in]
			for _, a := range in.Args {
				cp.Args = append(cp.Args, resolve(a))
			}
			for _, ib := range in.Incoming {
				cp.Incoming = append(cp.Incoming, bmap[ib])
			}
			for _, tb := range in.Blocks {
				cp.Blocks = append(cp.Blocks, bmap[tb])
			}
			if cp.Op == ir.OpRet {
				if len(cp.Args) > 0 {
					retVals = append(retVals, cp.Args[0])
				}
				retBlocks = append(retBlocks, bmap[cb])
				*cp = ir.Inst{Op: ir.OpBr, Ty: ir.Void, Blocks: []*ir.Block{cont}, Parent: bmap[cb]}
			}
		}
	}

	// Join return values via a phi at the continuation head.
	var result ir.Value
	switch {
	case call.Ty == ir.Void || call.Ty == nil:
		result = nil
	case len(retVals) == 1:
		result = retVals[0]
	case len(retVals) > 1:
		phi := &ir.Inst{Op: ir.OpPhi, Ty: call.Ty, Nam: "inlret" + itoa(f.UniqueSuffix()), Parent: cont}
		for i, rv := range retVals {
			ir.AddIncoming(phi, rv, retBlocks[i])
		}
		cont.Insts = append([]*ir.Inst{phi}, cont.Insts...)
		result = phi
	default:
		result = ir.UndefOf(call.Ty) // callee never returns
	}

	// Branch from the host block into the inlined entry.
	host.Insts = append(host.Insts, &ir.Inst{Op: ir.OpBr, Ty: ir.Void,
		Blocks: []*ir.Block{bmap[callee.Entry()]}, Parent: host})

	if result != nil {
		replaceAll(f, map[ir.Value]ir.Value{call: result})
	}
}
