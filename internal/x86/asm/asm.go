// Package asm provides a small label-based assembler on top of the x86
// encoder. It is used to author the "compiled" input corpus, by the DBrew
// encoder, and by the JIT backend.
//
// Code is generated once and placed once. Layout encodes each instruction a
// single time and records a fixup for every instruction whose bytes depend on
// where the code lands; Place copies the bytes to their final address and
// patches those fixups. Because the encoder always emits rel32 branches, no
// instruction's length depends on label values, so placing a branch only
// rewrites its 4-byte displacement.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/x86"
)

// Label is a forward-referenceable position in the instruction stream.
type Label int

// item is either an instruction or a label definition.
type item struct {
	inst    x86.Inst
	label   Label
	isLabel bool
	// target, when >= 0, marks the instruction as a branch to a label that
	// must be patched during assembly.
	target Label
}

// fixup marks a laid-out instruction whose bytes depend on the base: the
// item it encodes, and its offset and length in the laid-out code.
type fixup struct {
	item, off, n int
}

// Builder accumulates instructions and labels and assembles them to machine
// code at a chosen base address.
type Builder struct {
	items  []item
	nlabel int

	// Results of the last Layout: the code encoded at its size base, each
	// label's offset (-1 while unbound), the base-dependent instructions,
	// and the item count laid out (-1 after a failed Layout).
	code     []byte
	labelOff []int
	fixups   []fixup
	laidOut  int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// NewLabel allocates a fresh, not yet bound label.
func (b *Builder) NewLabel() Label {
	b.nlabel++
	return Label(b.nlabel - 1)
}

// Bind places lbl at the current position.
func (b *Builder) Bind(lbl Label) {
	b.items = append(b.items, item{label: lbl, isLabel: true, target: -1})
}

// Emit appends a non-branching instruction.
func (b *Builder) Emit(in x86.Inst) {
	b.items = append(b.items, item{inst: in, target: -1})
}

// I is shorthand for Emit with operands.
func (b *Builder) I(op x86.Op, args ...x86.Operand) {
	in := x86.Inst{Op: op}
	if len(args) > 0 {
		in.Dst = args[0]
	}
	if len(args) > 1 {
		in.Src = args[1]
	}
	if len(args) > 2 {
		in.Src2 = args[2]
	}
	b.Emit(in)
}

// Jmp emits an unconditional jump to lbl.
func (b *Builder) Jmp(lbl Label) {
	b.items = append(b.items, item{inst: x86.Inst{Op: x86.JMP, Dst: x86.Imm(0, 8)}, target: lbl})
}

// Jcc emits a conditional jump to lbl.
func (b *Builder) Jcc(c x86.Cond, lbl Label) {
	b.items = append(b.items, item{inst: x86.Inst{Op: x86.JCC, Cond: c, Dst: x86.Imm(0, 8)}, target: lbl})
}

// Call emits a call to an absolute address.
func (b *Builder) Call(addr uint64) {
	b.I(x86.CALL, x86.Imm(int64(addr), 8))
}

// CallLabel emits a call to a label inside this builder.
func (b *Builder) CallLabel(lbl Label) {
	b.items = append(b.items, item{inst: x86.Inst{Op: x86.CALL, Dst: x86.Imm(0, 8)}, target: lbl})
}

// Ret emits a return.
func (b *Builder) Ret() { b.I(x86.RET) }

// MovLabel emits "mov r64, imm" whose immediate is the absolute address of
// lbl, resolved at Place time. It is how subjects build jump tables and
// computed-goto targets at runtime without knowing layout in advance.
func (b *Builder) MovLabel(r x86.Reg, lbl Label) {
	b.items = append(b.items, item{inst: x86.Inst{Op: x86.MOV, Dst: x86.R64(r), Src: x86.Imm(0, 8)}, target: lbl})
}

// Layout encodes every instruction once, as if the code started at sizeBase,
// and returns the code size. It records each label's offset and one fixup
// per base-dependent instruction: the rel32 JMP, JCC and CALL (to a label or
// to an absolute target) and MovLabel. Branches are always rel32, so no
// instruction's length depends on where the code is placed; only a MovLabel
// immediate can change length, and Place reports that as drift. Layout fails
// on an instruction the encoder rejects and on a use of an unbound label.
func (b *Builder) Layout(sizeBase uint64) (int, error) {
	b.laidOut = -1
	b.labelOff = make([]int, b.nlabel)
	for i := range b.labelOff {
		b.labelOff[i] = -1
	}
	b.fixups = b.fixups[:0]
	e := x86.NewEncoder(sizeBase)
	e.Buf = make([]byte, 0, 4*len(b.items))
	for i, it := range b.items {
		if it.isLabel {
			b.labelOff[it.label] = len(e.Buf)
			continue
		}
		in := it.inst
		rel32 := in.Op == x86.JMP || in.Op == x86.JCC || in.Op == x86.CALL
		if rel32 {
			// Encode against the instruction's own address, so the range
			// check cannot fire; Place writes the real displacement.
			in.Dst = x86.Imm(int64(e.PC), 8)
		} else if it.target >= 0 {
			// MovLabel: size with a same-neighbourhood immediate.
			in.Src = x86.Imm(int64(e.PC), 8)
		}
		off := len(e.Buf)
		if err := e.Encode(in); err != nil {
			return 0, fmt.Errorf("asm: item %d: %w", i, err)
		}
		if rel32 || it.target >= 0 {
			b.fixups = append(b.fixups, fixup{item: i, off: off, n: len(e.Buf) - off})
		}
	}
	for _, f := range b.fixups {
		if t := b.items[f.item].target; t >= 0 && b.labelOff[t] < 0 {
			return 0, fmt.Errorf("asm: unbound label %d", t)
		}
	}
	b.code = e.Buf
	b.laidOut = len(b.items)
	return len(b.code), nil
}

// Place writes the laid-out code into dst as placed at base: it copies the
// encoded bytes and patches each fixup. A rel32 field is rewritten in place;
// a MovLabel is encoded again with the label's address, and must keep the
// length Layout gave it. dst must hold at least the size Layout returned.
func (b *Builder) Place(dst []byte, base uint64) error {
	if b.laidOut != len(b.items) {
		return fmt.Errorf("asm: Place without a Layout of the current items")
	}
	if len(dst) < len(b.code) {
		return fmt.Errorf("asm: placing %d bytes of code into %d", len(b.code), len(dst))
	}
	copy(dst, b.code)
	for _, f := range b.fixups {
		it := &b.items[f.item]
		pc := base + uint64(f.off)
		target := uint64(it.inst.Dst.Imm)
		if it.target >= 0 {
			target = base + uint64(b.labelOff[it.target])
		}
		if it.inst.Op == x86.MOV {
			in := it.inst
			in.Src = x86.Imm(int64(target), 8)
			enc, err := x86.EncodeInst(in, pc)
			if err != nil {
				return fmt.Errorf("asm: item %d: %w", f.item, err)
			}
			// Every later offset was computed from the laid-out length.
			if len(enc) != f.n {
				return fmt.Errorf("asm: item %d: code size changed: placed in %d bytes, laid out in %d (encoding length drifted)",
					f.item, len(enc), f.n)
			}
			copy(dst[f.off:], enc)
			continue
		}
		end := pc + uint64(f.n)
		rel := int64(target) - int64(end)
		if rel < math.MinInt32 || rel > math.MaxInt32 {
			in := it.inst
			in.Dst = x86.Imm(int64(target), 8)
			return fmt.Errorf("asm: item %d: x86: encode %v: %w", f.item, in, x86.ErrRel32Range)
		}
		binary.LittleEndian.PutUint32(dst[f.off+f.n-4:], uint32(rel))
	}
	return nil
}

// Assemble lays the instruction stream out and places it at base, returning
// the machine code plus the address of every bound label.
func (b *Builder) Assemble(base uint64) ([]byte, map[Label]uint64, error) {
	n, err := b.Layout(base)
	if err != nil {
		return nil, nil, err
	}
	code := make([]byte, n)
	if err := b.Place(code, base); err != nil {
		return nil, nil, err
	}
	labelAddr := make(map[Label]uint64, len(b.labelOff))
	for l, off := range b.labelOff {
		if off >= 0 {
			labelAddr[Label(l)] = base + uint64(off)
		}
	}
	return code, labelAddr, nil
}
