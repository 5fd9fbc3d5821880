package fastpath

import (
	"bytes"
	"testing"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

const codeBase = 0x401000

var i2Sig = abi.Signature{Params: []abi.Class{abi.ClassInt, abi.ClassInt}, Ret: abi.ClassInt}

// place assembles machine code at codeBase in a fresh memory image.
func place(t *testing.T, build func(b *asm.Builder)) (*emu.Memory, []byte) {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	code, _, err := b.Assemble(codeBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := emu.NewMemory(0x10000000)
	if _, err := mem.MapBytes(codeBase, code, "code"); err != nil {
		t.Fatal(err)
	}
	return mem, code
}

// maxCode is straight-line (CMOV instead of a branch): shortcut-eligible.
func maxCode(b *asm.Builder) {
	b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
	b.I(x86.CMP, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondL, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RSI)})
	b.Ret()
}

// branchCode takes the larger argument via a conditional jump: not eligible.
func branchCode(b *asm.Builder) {
	done := b.NewLabel()
	b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
	b.I(x86.CMP, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.Jcc(x86.CondGE, done)
	b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.Bind(done)
	b.Ret()
}

func run(t *testing.T, mem *emu.Memory, entry uint64, a, b uint64) uint64 {
	t.Helper()
	m := emu.NewMachine(mem)
	got, err := m.Call(entry, emu.CallArgs{Ints: []uint64{a, b}}, 1_000_000)
	if err != nil {
		t.Fatalf("call %#x: %v", entry, err)
	}
	return got
}

func TestShortcutCopiesStraightLine(t *testing.T) {
	mem, code := place(t, maxCode)
	before := ReadStats()
	res, err := Compile(mem, codeBase, "max", i2Sig, Options{NamePrefix: "t1."})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeCopy {
		t.Fatalf("mode = %v, want copy", res.Mode)
	}
	if res.Entry == codeBase {
		t.Fatal("copy installed at the original entry")
	}
	if res.Insts != 4 {
		t.Errorf("scanned insts = %d, want 4", res.Insts)
	}
	got, err := mem.Bytes(res.Entry, res.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, code) {
		t.Errorf("copied code differs:\n got %x\nwant %x", got, code)
	}
	for _, in := range [][2]uint64{{3, 9}, {9, 3}, {7, 7}, {0, 0xFFFFFFFFFFFFFFFF}} {
		if w, g := run(t, mem, codeBase, in[0], in[1]), run(t, mem, res.Entry, in[0], in[1]); g != w {
			t.Errorf("max(%d,%d): copy = %d, original = %d", in[0], in[1], g, w)
		}
	}
	after := ReadStats()
	if after.Copies != before.Copies+1 {
		t.Errorf("Copies = %d, want %d", after.Copies, before.Copies+1)
	}
}

func TestBranchFallsBackToLower(t *testing.T) {
	mem, _ := place(t, branchCode)
	before := ReadStats()
	res, err := Compile(mem, codeBase, "max", i2Sig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeLower {
		t.Fatalf("mode = %v, want lower", res.Mode)
	}
	for _, in := range [][2]uint64{{3, 9}, {9, 3}, {7, 7}} {
		if w, g := run(t, mem, codeBase, in[0], in[1]), run(t, mem, res.Entry, in[0], in[1]); g != w {
			t.Errorf("max(%d,%d): lowered = %d, original = %d", in[0], in[1], g, w)
		}
	}
	after := ReadStats()
	if after.Lowers != before.Lowers+1 || after.ShortcutRejects != before.ShortcutRejects+1 {
		t.Errorf("stats = %+v, want one more lower and reject than %+v", after, before)
	}
}

func TestRIPRelativeCopyFixup(t *testing.T) {
	mem, code := place(t, func(b *asm.Builder) {
		// RIP-relative load: position-dependent, so the copy route must
		// re-encode the displacement against the new address. The
		// displacement points 8 bytes past RET, where we map a constant.
		b.Emit(x86.Inst{Op: x86.MOV, Dst: x86.R64(x86.RAX), Src: x86.MemRIP(8, 1)})
		b.Ret()
	})
	// The mov is 7 bytes, so its RIP target (end + 1) is codeBase + 8 —
	// right after the 1-byte RET.
	if _, err := mem.MapBytes(codeBase+8, []byte{0x2A, 0, 0, 0, 0, 0, 0, 0}, "const"); err != nil {
		t.Fatal(err)
	}
	before := ReadStats()
	res, err := Compile(mem, codeBase, "ripload", abi.Signature{Ret: abi.ClassInt}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeCopy {
		t.Fatalf("mode = %v, want copy (RIP-relative fixup)", res.Mode)
	}
	got, err := mem.Bytes(res.Entry, res.CodeSize)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, code) {
		t.Error("fixed-up copy is byte-identical to the original: displacement was not retargeted")
	}
	if g := run(t, mem, res.Entry, 0, 0); g != 0x2A {
		t.Errorf("relocated ripload = %#x, want 0x2a", g)
	}
	after := ReadStats()
	if after.CopyFixups != before.CopyFixups+1 {
		t.Errorf("CopyFixups = %d, want %d", after.CopyFixups, before.CopyFixups+1)
	}
}

func TestRIPRelativeStoreCopyFixup(t *testing.T) {
	// A RIP-relative *store* followed by a reload, exercising a destination
	// memory operand fixup: writes 0x55 into the slot after RET, reads it
	// back.
	mem, _ := place(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0x55, 4))
		// Both instructions target the 8-byte slot right past RET.
		// Sizes: mov-imm 7, store 7, load 7, ret 1 → end offsets 7/14/21/22.
		b.Emit(x86.Inst{Op: x86.MOV, Dst: x86.MemRIP(8, 22-14), Src: x86.R64(x86.RAX)})
		b.Emit(x86.Inst{Op: x86.MOV, Dst: x86.R64(x86.RAX), Src: x86.MemRIP(8, 22-21)})
		b.Ret()
	})
	if _, err := mem.MapBytes(codeBase+22, make([]byte, 8), "slot"); err != nil {
		t.Fatal(err)
	}
	res, err := Compile(mem, codeBase, "ripstore", abi.Signature{Ret: abi.ClassInt}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeCopy {
		t.Fatalf("mode = %v, want copy (RIP-relative fixup)", res.Mode)
	}
	if g := run(t, mem, res.Entry, 0, 0); g != 0x55 {
		t.Errorf("relocated ripstore = %#x, want 0x55", g)
	}
	// Both copies hit the same absolute slot: the original still sees the
	// value stored by the relocated code's target computation.
	if g := run(t, mem, codeBase, 0, 0); g != 0x55 {
		t.Errorf("original ripstore = %#x, want 0x55", g)
	}
}

func TestScanStraightLine(t *testing.T) {
	mem, code := place(t, maxCode)
	insts, n, ok := scanStraightLine(mem, codeBase, 0)
	if !ok || n != len(code) || len(insts) != 4 {
		t.Errorf("scan = (%d, %d, %v), want (%d, 4, true)", n, len(insts), ok, len(code))
	}
	// A scan cap below the function size rejects.
	if _, _, ok := scanStraightLine(mem, codeBase, 2); ok {
		t.Error("scan with 2-byte cap should reject")
	}
	// Decoding into unmapped memory rejects (no RET found).
	if _, _, ok := scanStraightLine(mem, codeBase+uint64(len(code)), 64); ok {
		t.Error("scan past the function should reject")
	}
}
