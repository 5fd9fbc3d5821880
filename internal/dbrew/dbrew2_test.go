package dbrew

import (
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// rewriteAndRun rewrites with fixations applied, then calls both versions,
// each on a fresh machine so the original's flags cannot leak into the
// specialization's run.
func rewriteAndRun(t *testing.T, mem *emu.Memory, sig abi.Signature,
	cfgFn func(r *Rewriter), callArgs []uint64) (orig, spec uint64, r *Rewriter) {
	t.Helper()
	r = NewRewriter(mem, codeBase, sig)
	if cfgFn != nil {
		cfgFn(r)
	}
	newFn, err := r.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Failed {
		t.Fatalf("rewrite failed: %v", r.Stats.Err)
	}
	m := emu.NewMachine(mem)
	orig, err = m.Call(codeBase, emu.CallArgs{Ints: callArgs}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	spec, err = emu.NewMachine(mem).Call(newFn, emu.CallArgs{Ints: callArgs}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	return orig, spec, r
}

// TestKnownCmovBothWays: cmov with statically known flags becomes either a
// no-op or a plain move.
func TestKnownCmovBothWays(t *testing.T) {
	for _, fix := range []uint64{1, 9} { // below and above the threshold 5
		mem, _ := buildCode(t, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(100, 8))
			b.I(x86.CMP, x86.R64(x86.RDI), x86.Imm(5, 8))
			b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondL, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RSI)})
			b.Ret()
		})
		r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt))
		r.SetPar(0, fix)
		newFn, err := r.Rewrite()
		if err != nil || r.Stats.Failed {
			t.Fatalf("fix=%d: %v %v", fix, err, r.Stats.Err)
		}
		m := emu.NewMachine(mem)
		got, err := m.Call(newFn, emu.CallArgs{Ints: []uint64{0xBAD, 7}}, 100)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(100)
		if fix < 5 {
			want = 7
		}
		if got != want {
			t.Errorf("fix=%d: got %d, want %d", fix, got, want)
		}
	}
}

// TestKnownSetcc: setcc over known flags folds to a constant byte.
func TestKnownSetcc(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		b.I(x86.XOR, x86.R32(x86.RAX), x86.R32(x86.RAX))
		b.I(x86.CMP, x86.R64(x86.RDI), x86.Imm(10, 8))
		b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondGE, Dst: x86.R8L(x86.RAX)})
		b.Ret()
	})
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt, abi.ClassInt))
	r.SetPar(0, 42)
	newFn, err := r.Rewrite()
	if err != nil || r.Stats.Failed {
		t.Fatalf("%v %v", err, r.Stats.Err)
	}
	m := emu.NewMachine(mem)
	got, _ := m.Call(newFn, emu.CallArgs{Ints: []uint64{0}}, 100)
	if got != 1 {
		t.Errorf("setge folded wrong: %d", got)
	}
	// The cmp and setcc must both be gone.
	lst, _ := Listing(mem, newFn, r.Stats.CodeSize)
	for _, l := range lst {
		if strings.Contains(l, "cmp") || strings.Contains(l, "set") {
			t.Errorf("unexpected instruction survived: %s", l)
		}
	}
}

// TestKnownShiftsAndRotates fold completely.
func TestKnownShiftsAndRotates(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.I(x86.SHL, x86.R64(x86.RAX), x86.Imm(4, 1))
		b.I(x86.SHR, x86.R64(x86.RAX), x86.Imm(1, 1))
		b.I(x86.ROL, x86.R64(x86.RAX), x86.Imm(8, 1))
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RSI)) // keep rsi dynamic
		b.Ret()
	})
	orig, spec, r := rewriteAndRunFixed(t, mem, 0x11, []uint64{0x11, 5})
	if orig != spec {
		t.Errorf("shift folding diverged: %#x vs %#x", spec, orig)
	}
	if r.Stats.Eliminated < 3 {
		t.Errorf("expected the shifts to be eliminated, stats: %+v", r.Stats)
	}
}

func rewriteAndRunFixed(t *testing.T, mem *emu.Memory, fix uint64, args []uint64) (orig, spec uint64, r *Rewriter) {
	t.Helper()
	return rewriteAndRun(t, mem, abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt),
		func(r *Rewriter) { r.SetPar(0, fix) }, args)
}

// TestDecDrivenLoopUnrolls: the dec/jnz idiom (flags from dec, CF untouched)
// unrolls under a known counter.
func TestDecDrivenLoopUnrolls(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RDI))
		b.I(x86.XOR, x86.R32(x86.RAX), x86.R32(x86.RAX))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RSI))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassInt))
	r.SetPar(0, 4)
	newFn, err := r.Rewrite()
	if err != nil || r.Stats.Failed {
		t.Fatalf("%v %v", err, r.Stats.Err)
	}
	m := emu.NewMachine(mem)
	got, _ := m.Call(newFn, emu.CallArgs{Ints: []uint64{0, 10}}, 1000)
	if got != 40 {
		t.Errorf("unrolled sum = %d, want 40", got)
	}
	lst, _ := Listing(mem, newFn, r.Stats.CodeSize)
	for _, l := range lst {
		if strings.HasPrefix(l, "j") {
			t.Errorf("branch survived unrolling: %s", l)
		}
	}
}

// TestMemWriteWithKnownValue: stores of computed known values become
// immediate stores.
func TestMemWriteWithKnownValue(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.I(x86.IMUL3, x86.R64(x86.RAX), x86.R64(x86.RAX), x86.Imm(3, 8))
		b.I(x86.MOV, x86.MemBD(8, x86.RSI, 0), x86.R64(x86.RAX))
		b.Ret()
	})
	buf := mem.Alloc(16, 16, "buf")
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt, abi.ClassInt, abi.ClassPtr))
	r.SetPar(0, 14)
	newFn, err := r.Rewrite()
	if err != nil || r.Stats.Failed {
		t.Fatalf("%v %v", err, r.Stats.Err)
	}
	m := emu.NewMachine(mem)
	if _, err := m.Call(newFn, emu.CallArgs{Ints: []uint64{0, buf.Start}}, 100); err != nil {
		t.Fatal(err)
	}
	v, _ := mem.ReadU(buf.Start, 8)
	if v != 42 {
		t.Errorf("stored %d, want 42", v)
	}
	lst, _ := Listing(mem, newFn, r.Stats.CodeSize)
	joined := strings.Join(lst, "\n")
	if !strings.Contains(joined, "0x2a") {
		t.Errorf("expected an immediate store of 42:\n%s", joined)
	}
}

// TestRIPRelativeRewrite: rip-relative operands are rebased to absolute
// addresses in the generated code.
func TestRIPRelativeRewrite(t *testing.T) {
	mem := emu.NewMemory(0x10000000)
	data := mem.Alloc(16, 16, "data")
	mem.WriteU(data.Start, 8, 777)
	b := asm.NewBuilder()
	// mov rax, [rip + disp] — computed against the final layout.
	// Instruction is 7 bytes; it starts at codeBase.
	disp := int32(int64(data.Start) - int64(codeBase) - 7)
	b.I(x86.MOV, x86.R64(x86.RAX), x86.MemRIP(8, disp))
	b.Ret()
	code, _, err := b.Assemble(codeBase)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.MapBytes(codeBase, code, "code"); err != nil {
		t.Fatal(err)
	}
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt))
	newFn, err := r.Rewrite()
	if err != nil || r.Stats.Failed {
		t.Fatalf("%v %v", err, r.Stats.Err)
	}
	m := emu.NewMachine(mem)
	got, err := m.Call(newFn, emu.CallArgs{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Errorf("rip-relative rebased load = %d", got)
	}
}

// TestInstructionBudget: the MaxInsts resource limit aborts rewriting and
// the default handler falls back.
func TestInstructionBudget(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		for i := 0; i < 40; i++ {
			b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
		}
		b.Ret()
	})
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt))
	r.SetConfig(Config{MaxInsts: 10})
	got, err := r.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if got != codeBase || !r.Stats.Failed {
		t.Error("budget exhaustion must fall back to the original")
	}
}

// TestPoisonedFlagsRejected: consuming flags whose producer was eliminated
// aborts rewriting (correctness over specialization).
func TestPoisonedFlagsRejected(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		// imul with both inputs known is eliminated; its OF would be known
		// but ZF is architecturally undefined -> poisoned; jz consumes it.
		skip := b.NewLabel()
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(3, 8))
		b.I(x86.IMUL3, x86.R64(x86.RAX), x86.R64(x86.RAX), x86.Imm(5, 8))
		b.Jcc(x86.CondE, skip)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
		b.Bind(skip)
		b.Ret()
	})
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt))
	got, err := r.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Failed {
		t.Fatal("consuming poisoned flags must fail rewriting")
	}
	if got != codeBase {
		t.Error("must fall back to the original")
	}
}

// TestXchgKnown: exchanging two known registers is fully evaluated.
func TestXchgKnown(t *testing.T) {
	mem, _ := buildCode(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(1, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(2, 8))
		b.I(x86.XCHG, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDI)) // dynamic use
		b.Ret()
	})
	r := NewRewriter(mem, codeBase, abi.Sig(abi.ClassInt, abi.ClassInt))
	newFn, err := r.Rewrite()
	if err != nil || r.Stats.Failed {
		t.Fatalf("%v %v", err, r.Stats.Err)
	}
	m := emu.NewMachine(mem)
	got, _ := m.Call(newFn, emu.CallArgs{Ints: []uint64{10}}, 100)
	if got != 12 {
		t.Errorf("xchg folding: %d, want 12", got)
	}
}

// TestStatsString formats without panicking and includes fields.
func TestStatsString(t *testing.T) {
	s := Stats{Decoded: 10, Emitted: 5, Eliminated: 3, Inlined: 1, CodeSize: 64}
	_ = s
}
