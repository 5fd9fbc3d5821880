package bench

import "repro/internal/abi"

// SpecInput names one Section VI specialization as Engine/Rewriter inputs:
// the kernel entry, its ABI signature, and the serialized stencil the
// specialization fixes parameter 0 to. It is how the dbrewd tests and smoke
// mode, and benchmark/, reuse the paper's workload without depending on
// this package's preparation machinery.
type SpecInput struct {
	Entry       uint64
	Sig         abi.Signature
	StencilAddr uint64
	StencilSize int
}

// SpecInput returns the specialization inputs for a (kind, structure, mode)
// combination — the same selection Prepare makes internally.
func (w *Workload) SpecInput(kind Kind, s Structure, mode Mode) SpecInput {
	entry, sAddr, fullSize, _ := w.inputFor(kind, s, mode)
	return SpecInput{Entry: entry, Sig: sigFor(kind), StencilAddr: sAddr, StencilSize: fullSize}
}
