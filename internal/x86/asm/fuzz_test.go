package asm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/x86"
)

// fuzzOp is one entry of a generated item stream. It is applied to a Builder
// and, independently, to referenceAssemble.
type fuzzOp struct {
	bind  bool // Bind(label)
	inst  x86.Inst
	label int // target label of a Jmp, Jcc, CallLabel or MovLabel; -1 if none
}

const fuzzLabels = 4

// fuzzBases are placed on every input besides the fuzzed base: low memory,
// just below and above 2 GiB, and the high bases of TestAssembleAtHighBase.
var fuzzBases = []uint64{0x1000, 0x7FFF_FFF0, 0x9000_0000, 0x7FFF_FFF0_0000}

// fuzzCallTargets are the absolute Call targets a stream draws from; the
// operand byte is added, so near and far targets occur at
// every base.
var fuzzCallTargets = []uint64{0x1000, 0x7FFF_FFF0, 0x9000_0000, 0x7FFF_FFF0_0000,
	0x1_0000_0000, 0xFFFF_FFFF_8000_0000}

var fuzzRegs = []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.RBX, x86.RSI, x86.RDI, x86.R8, x86.R11, x86.R15}

// decodeFuzzProg turns pairs of bytes (opcode, operand) into an item stream.
func decodeFuzzProg(prog []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+1 < len(prog) && len(ops) < 256; i += 2 {
		sel, arg := prog[i], prog[i+1]
		lbl := int(arg) % fuzzLabels
		reg := fuzzRegs[int(arg)%len(fuzzRegs)]
		op := fuzzOp{label: -1}
		switch sel % 10 {
		case 0:
			op.inst = x86.Inst{Op: x86.ADD, Dst: x86.R64(reg), Src: x86.Imm(int64(int8(arg)), 8)}
		case 1:
			op.inst = x86.Inst{Op: x86.SUB, Dst: x86.R64(reg), Src: x86.Imm(int64(arg)<<10, 8)}
		case 2:
			op.inst = x86.Inst{Op: x86.XOR, Dst: x86.R32(reg), Src: x86.R32(fuzzRegs[int(sel)%len(fuzzRegs)])}
		case 3:
			op.inst = x86.Inst{Op: x86.MOV, Dst: x86.MemBD(8, x86.RBP, int32(-8*int(arg))), Src: x86.R64(reg)}
		case 4:
			op.bind = true
			op.label = lbl
		case 5:
			op.inst = x86.Inst{Op: x86.JMP, Dst: x86.Imm(0, 8)}
			op.label = lbl
		case 6:
			op.inst = x86.Inst{Op: x86.JCC, Cond: x86.Cond(arg % 16), Dst: x86.Imm(0, 8)}
			op.label = lbl
		case 7:
			op.inst = x86.Inst{Op: x86.CALL, Dst: x86.Imm(0, 8)}
			op.label = lbl
		case 8:
			target := fuzzCallTargets[int(sel/10)%len(fuzzCallTargets)] + uint64(arg)
			op.inst = x86.Inst{Op: x86.CALL, Dst: x86.Imm(int64(target), 8)}
		case 9:
			op.inst = x86.Inst{Op: x86.MOV, Dst: x86.R64(reg), Src: x86.Imm(0, 8)}
			op.label = lbl
		}
		ops = append(ops, op)
	}
	return ops
}

func buildFuzzProg(ops []fuzzOp) *Builder {
	b := NewBuilder()
	for i := 0; i < fuzzLabels; i++ {
		b.NewLabel()
	}
	for _, op := range ops {
		l := Label(op.label)
		switch {
		case op.bind:
			b.Bind(l)
		case op.label < 0:
			b.Emit(op.inst)
		case op.inst.Op == x86.JMP:
			b.Jmp(l)
		case op.inst.Op == x86.JCC:
			b.Jcc(op.inst.Cond, l)
		case op.inst.Op == x86.CALL:
			b.CallLabel(l)
		default:
			b.MovLabel(op.inst.Dst.Reg, l)
		}
	}
	return b
}

var (
	errRefUnbound = errors.New("unbound label")
	errRefDrift   = errors.New("encoding length drifted")
)

// referenceAssemble encodes the stream directly: it sizes every instruction
// with a target at its own address, gives each label its address, and then
// encodes each instruction at its final pc with its resolved target. An
// instruction whose final encoding has another length than its sized one
// is drift.
func referenceAssemble(ops []fuzzOp, base uint64) ([]byte, error) {
	bound := map[int]bool{}
	for _, op := range ops {
		if op.bind {
			bound[op.label] = true
		}
	}
	for _, op := range ops {
		if !op.bind && op.label >= 0 && !bound[op.label] {
			return nil, errRefUnbound
		}
	}
	withTarget := func(in x86.Inst, target uint64) x86.Inst {
		if in.Op == x86.MOV {
			in.Src = x86.Imm(int64(target), 8)
		} else {
			in.Dst = x86.Imm(int64(target), 8)
		}
		return in
	}
	sizes := make([]int, len(ops))
	addr := map[int]uint64{}
	pc := base
	for i, op := range ops {
		if op.bind {
			addr[op.label] = pc
			continue
		}
		in := op.inst
		if op.label >= 0 || in.Op == x86.CALL {
			in = withTarget(in, pc)
		}
		enc, err := x86.EncodeInst(in, pc)
		if err != nil {
			return nil, err
		}
		sizes[i] = len(enc)
		pc += uint64(len(enc))
	}
	var out []byte
	pc = base
	for i, op := range ops {
		if op.bind {
			continue
		}
		in := op.inst
		if op.label >= 0 {
			in = withTarget(in, addr[op.label])
		}
		enc, err := x86.EncodeInst(in, pc)
		if err != nil {
			return nil, err
		}
		if len(enc) != sizes[i] {
			return nil, errRefDrift
		}
		out = append(out, enc...)
		pc += uint64(len(enc))
	}
	return out, nil
}

// failure names the way an assembly failed, so the two paths can be compared
// without comparing their error texts.
func failure(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, x86.ErrRel32Range):
		return "rel32 range"
	case strings.Contains(err.Error(), errRefUnbound.Error()):
		return "unbound label"
	case strings.Contains(err.Error(), errRefDrift.Error()):
		return "drift"
	}
	return fmt.Sprintf("other (%v)", err)
}

func checkLayoutPlace(t *testing.T, ops []fuzzOp, base uint64) {
	want, refErr := referenceAssemble(ops, base)
	b := buildFuzzProg(ops)
	var got []byte
	n, err := b.Layout(base)
	if err == nil {
		got = make([]byte, n)
		err = b.Place(got, base)
	}
	if failure(err) != failure(refErr) {
		t.Fatalf("base %#x: Layout+Place: %v; reference: %v", base, err, refErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("base %#x: Layout+Place gave\n% x\nreference\n% x", base, got, want)
	}
}

// FuzzLayoutPlace: laying a random item stream out and placing it must give
// the bytes of a direct encoding at the final addresses, or fail the same way
// (a branch out of rel32 range, an unbound label, or MovLabel drift).
func FuzzLayoutPlace(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 6, 0, 5, 4, 4, 4, 2, 3}, uint64(0x1000))                // loop, forward and back
	f.Add([]byte{7, 1, 3, 2, 4, 1, 1, 9, 8, 5}, uint64(0x9000_0000))                 // CallLabel, absolute call
	f.Add([]byte{9, 0, 0, 1, 0, 2, 0, 3, 4, 0, 6, 0}, uint64(0x7FFF_FFF0))           // MovLabel drifting past 2 GiB
	f.Add([]byte{9, 2, 4, 2, 9, 6}, uint64(0x7FFF_FFE8))                             // MovLabel that fits
	f.Add([]byte{5, 3, 0, 0}, uint64(0x4000))                                        // unbound label
	f.Add([]byte{18, 7, 28, 0, 38, 1}, uint64(0x1000))                               // far absolute calls
	f.Add([]byte{4, 1, 2, 5, 3, 9, 6, 1, 7, 1, 9, 1}, uint64(0xFFFF_FFFF_FFFF_FF00)) // wrapping pc
	f.Fuzz(func(t *testing.T, prog []byte, base uint64) {
		ops := decodeFuzzProg(prog)
		checkLayoutPlace(t, ops, base)
		for _, b := range fuzzBases {
			checkLayoutPlace(t, ops, b)
		}
	})
}
