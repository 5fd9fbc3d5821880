package emu

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/x86"
	"repro/internal/x86/asm"
)

const codeBase = 0x401000

// buildAndLoad assembles a function and returns a machine with the code
// mapped plus the entry address.
func buildAndLoad(t *testing.T, build func(b *asm.Builder)) (*Machine, uint64) {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	code, _, err := b.Assemble(codeBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := NewMemory(0x10000000)
	if _, err := mem.MapBytes(codeBase, code, "code"); err != nil {
		t.Fatal(err)
	}
	return NewMachine(mem), codeBase
}

func TestMaxFunction(t *testing.T) {
	// The paper's Figure 6 kernel: max(a, b) via cmp + cmovl.
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.I(x86.CMP, x86.R64(x86.RDI), x86.R64(x86.RSI))
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondL, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RSI)})
		b.Ret()
	})
	cases := [][3]int64{{1, 2, 2}, {5, 3, 5}, {-7, -2, -2}, {0, 0, 0}, {math.MinInt64, 1, 1}}
	for _, c := range cases {
		m.RIP = 0
		got, err := m.Call(entry, CallArgs{Ints: []uint64{uint64(c[0]), uint64(c[1])}}, 100)
		if err != nil {
			t.Fatalf("max(%d,%d): %v", c[0], c[1], err)
		}
		if int64(got) != c[2] {
			t.Errorf("max(%d,%d) = %d, want %d", c[0], c[1], int64(got), c[2])
		}
	}
}

func TestMaxFunctionProperty(t *testing.T) {
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.I(x86.CMP, x86.R64(x86.RDI), x86.R64(x86.RSI))
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondL, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RSI)})
		b.Ret()
	})
	f := func(a, b int64) bool {
		got, err := m.Call(entry, CallArgs{Ints: []uint64{uint64(a), uint64(b)}}, 100)
		if err != nil {
			return false
		}
		want := a
		if b > a {
			want = b
		}
		return int64(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLoopSum(t *testing.T) {
	// sum(n) = 0 + 1 + ... + (n-1), a counted loop with jcc backedge.
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		b.I(x86.XOR, x86.R32(x86.RAX), x86.R32(x86.RAX))
		b.I(x86.XOR, x86.R32(x86.RCX), x86.R32(x86.RCX))
		loop := b.NewLabel()
		done := b.NewLabel()
		b.Bind(loop)
		b.I(x86.CMP, x86.R64(x86.RCX), x86.R64(x86.RDI))
		b.Jcc(x86.CondGE, done)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.I(x86.ADD, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jmp(loop)
		b.Bind(done)
		b.Ret()
	})
	for _, n := range []uint64{0, 1, 2, 10, 100} {
		got, err := m.Call(entry, CallArgs{Ints: []uint64{n}}, 10000)
		if err != nil {
			t.Fatalf("sum(%d): %v", n, err)
		}
		want := n * (n - 1) / 2
		if n == 0 {
			want = 0
		}
		if got != want {
			t.Errorf("sum(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFloatKernel(t *testing.T) {
	// out[i] = 0.25*(in[i-1] + in[i+1]) over a small array, the shape of the
	// stencil inner operation.
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		// rdi = in, rsi = out, rdx = i
		b.I(x86.MOVSD_X, x86.X(x86.XMM0), x86.MemBIS(8, x86.RDI, x86.RDX, 8, -8))
		b.I(x86.ADDSD, x86.X(x86.XMM0), x86.MemBIS(8, x86.RDI, x86.RDX, 8, 8))
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0x3FD0000000000000, 8)) // 0.25
		b.I(x86.MOVQGP, x86.X(x86.XMM1), x86.R64(x86.RAX))
		b.I(x86.MULSD, x86.X(x86.XMM0), x86.X(x86.XMM1))
		b.I(x86.MOVSD_X, x86.MemBIS(8, x86.RSI, x86.RDX, 8, 0), x86.X(x86.XMM0))
		b.Ret()
	})
	in := m.Mem.Alloc(8*8, 16, "in")
	out := m.Mem.Alloc(8*8, 16, "out")
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range vals {
		if err := m.Mem.WriteFloat64(in.Start+uint64(8*i), v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 7; i++ {
		if _, err := m.Call(entry, CallArgs{Ints: []uint64{in.Start, out.Start, uint64(i)}}, 100); err != nil {
			t.Fatalf("i=%d: %v", i, err)
		}
		got, err := m.Mem.ReadFloat64(out.Start + uint64(8*i))
		if err != nil {
			t.Fatal(err)
		}
		want := 0.25 * (vals[i-1] + vals[i+1])
		if got != want {
			t.Errorf("out[%d] = %g, want %g", i, got, want)
		}
	}
}

func TestPackedDouble(t *testing.T) {
	// Two-wide vector add/mul: [a0+b0, a1+b1] * [c, c].
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDI, 0))
		b.I(x86.ADDPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RSI, 0))
		b.I(x86.MULPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
		b.I(x86.MOVUPD, x86.MemBD(16, x86.RCX, 0), x86.X(x86.XMM0))
		b.Ret()
	})
	a := m.Mem.Alloc(16, 16, "a")
	bb := m.Mem.Alloc(16, 16, "b")
	c := m.Mem.Alloc(16, 16, "c")
	o := m.Mem.Alloc(16, 16, "o")
	m.Mem.WriteFloat64(a.Start, 1.5)
	m.Mem.WriteFloat64(a.Start+8, -2)
	m.Mem.WriteFloat64(bb.Start, 4)
	m.Mem.WriteFloat64(bb.Start+8, 0.5)
	m.Mem.WriteFloat64(c.Start, 3)
	m.Mem.WriteFloat64(c.Start+8, 3)
	if _, err := m.Call(entry, CallArgs{Ints: []uint64{a.Start, bb.Start, c.Start, o.Start}}, 100); err != nil {
		t.Fatal(err)
	}
	v0, _ := m.Mem.ReadFloat64(o.Start)
	v1, _ := m.Mem.ReadFloat64(o.Start + 8)
	if v0 != (1.5+4)*3 || v1 != (-2+0.5)*3 {
		t.Errorf("got [%g %g], want [16.5 -4.5]", v0, v1)
	}
}

func TestSubRegisterWrites(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	m.GPR[x86.RAX] = 0xFFFFFFFFFFFFFFFF
	m.gpWrite(x86.RAX, 4, 0x12345678)
	if m.GPR[x86.RAX] != 0x12345678 {
		t.Errorf("32-bit write must zero upper half: %#x", m.GPR[x86.RAX])
	}
	m.GPR[x86.RAX] = 0xAAAAAAAAAAAAAAAA
	m.gpWrite(x86.RAX, 2, 0x1234)
	if m.GPR[x86.RAX] != 0xAAAAAAAAAAAA1234 {
		t.Errorf("16-bit write must preserve upper bits: %#x", m.GPR[x86.RAX])
	}
	m.gpWrite(x86.RAX, 1, 0xFF)
	if m.GPR[x86.RAX] != 0xAAAAAAAAAAAA12FF {
		t.Errorf("8-bit write must preserve upper bits: %#x", m.GPR[x86.RAX])
	}
	m.gpWrite(x86.AH, 1, 0x55)
	if m.GPR[x86.RAX] != 0xAAAAAAAAAAAA55FF {
		t.Errorf("ah write: %#x", m.GPR[x86.RAX])
	}
	if m.gpRead(x86.AH, 1) != 0x55 {
		t.Errorf("ah read: %#x", m.gpRead(x86.AH, 1))
	}
}

func TestFlagsSubCmp(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	cases := []struct {
		a, b   uint64
		zf, sf bool
		ovf    bool
	}{
		{5, 5, true, false, false},
		{5, 7, false, true, false},
		{7, 5, false, false, false},
		{0x8000000000000000, 1, false, false, true}, // INT64_MIN - 1 overflows
	}
	for _, c := range cases {
		m.Flags = FlagsOfSub(c.a, c.b, 8)
		if m.Flags.ZF != c.zf || m.Flags.SF != c.sf || m.Flags.OF != c.ovf {
			t.Errorf("sub(%#x,%#x): ZF=%v SF=%v OF=%v, want %v %v %v",
				c.a, c.b, m.Flags.ZF, m.Flags.SF, m.Flags.OF, c.zf, c.sf, c.ovf)
		}
	}
}

// TestSignedComparisonProperty checks that SF != OF after CMP is exactly
// signed less-than — the identity the paper's flag cache relies on.
func TestSignedComparisonProperty(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	f := func(a, b int64) bool {
		m.Flags = FlagsOfSub(uint64(a), uint64(b), 8)
		lt := m.Flags.SF != m.Flags.OF
		return lt == (a < b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCondHolds(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	m.Flags = Flags{ZF: true}
	if !m.CondHolds(x86.CondE) || m.CondHolds(x86.CondNE) {
		t.Error("ZF handling broken")
	}
	m.Flags = Flags{SF: true, OF: false}
	if !m.CondHolds(x86.CondL) || m.CondHolds(x86.CondGE) {
		t.Error("signed less-than broken")
	}
	m.Flags = Flags{CF: true, ZF: false}
	if !m.CondHolds(x86.CondB) || !m.CondHolds(x86.CondBE) || m.CondHolds(x86.CondA) {
		t.Error("unsigned compare broken")
	}
}

func TestComisd(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	comi(&m.Flags, 1, 2)
	if !m.Flags.CF || m.Flags.ZF {
		t.Error("1 < 2 must set CF only")
	}
	comi(&m.Flags, 2, 1)
	if m.Flags.CF || m.Flags.ZF {
		t.Error("2 > 1 must clear CF and ZF")
	}
	comi(&m.Flags, 2, 2)
	if m.Flags.CF || !m.Flags.ZF {
		t.Error("equal must set ZF only")
	}
	comi(&m.Flags, math.NaN(), 1)
	if !m.Flags.CF || !m.Flags.ZF || !m.Flags.PF {
		t.Error("unordered must set ZF, PF, CF")
	}
}

func TestMemoryFault(t *testing.T) {
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.MemBD(8, x86.RDI, 0))
		b.Ret()
	})
	if _, err := m.Call(entry, CallArgs{Ints: []uint64{0xDEADBEEF}}, 100); err == nil {
		t.Fatal("expected fault on unmapped read")
	}
}

func TestMemoryRegions(t *testing.T) {
	mem := NewMemory(0x1000)
	a := mem.Alloc(100, 16, "a")
	b := mem.Alloc(200, 64, "b")
	if a.Start%16 != 0 || b.Start%64 != 0 {
		t.Error("alignment not honored")
	}
	if b.Start < a.End() {
		t.Error("regions overlap")
	}
	if _, err := mem.Map(a.Start+1, 10, "overlap"); err == nil {
		t.Error("overlapping Map must fail")
	}
	if err := mem.WriteU(a.Start, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, err := mem.ReadU(a.Start, 8)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("read back %#x, %v", v, err)
	}
	// Partial-size reads.
	v, _ = mem.ReadU(a.Start, 4)
	if v != 0x55667788 {
		t.Errorf("dword read %#x", v)
	}
	v, _ = mem.ReadU(a.Start, 1)
	if v != 0x88 {
		t.Errorf("byte read %#x", v)
	}
}

// TestMemoryMapBelowBrkKeepsRegionsSorted interleaves Alloc with Maps that
// land below the allocator's break — descending fixed addresses under the
// base and slots inside the allocations' red zones — so every insert goes
// somewhere other than the end. The published set must stay sorted and
// disjoint, every region must stay findable, and overlaps from either side
// must still be refused.
func TestMemoryMapBelowBrkKeepsRegionsSorted(t *testing.T) {
	mem := NewMemory(0x100000)
	for i := 0; i < 64; i++ {
		a := mem.Alloc(40, 16, "alloc")
		if _, err := mem.Map(a.End()+16, 16, "redzone"); err != nil {
			t.Fatalf("step %d: map in the red zone: %v", i, err)
		}
		low, err := mem.Map(0x80000-uint64(i)*0x100, 0x80, "low")
		if err != nil {
			t.Fatalf("step %d: map below the base: %v", i, err)
		}
		if _, err := mem.Map(low.Start-0x10, 0x20, "left"); err == nil {
			t.Fatalf("step %d: a map overlapping %#x from the left succeeded", i, low.Start)
		}
		if _, err := mem.Map(low.End()-0x10, 0x20, "right"); err == nil {
			t.Fatalf("step %d: a map overlapping %#x from the right succeeded", i, low.Start)
		}
		if _, err := mem.Map(a.Start+8, 4, "inside"); err == nil {
			t.Fatalf("step %d: a map inside %#x succeeded", i, a.Start)
		}
	}
	// An empty region sharing its start with a mapped one sorts before it; a
	// map into the mapped one's middle must still be refused.
	if _, err := mem.Map(0x80000, 0, "empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Map(0x80040, 8, "middle"); err == nil {
		t.Fatal("a map behind an empty region into a mapped one succeeded")
	}

	regions := mem.Regions()
	if len(regions) != 3*64+1 {
		t.Fatalf("%d regions, want %d", len(regions), 3*64+1)
	}
	var end uint64 // end of the last non-empty region
	for i, r := range regions {
		if i > 0 && r.Start < regions[i-1].Start {
			t.Fatalf("region %d at %#x sorts after region %d at %#x", i, r.Start, i-1, regions[i-1].Start)
		}
		if len(r.Data) == 0 {
			continue
		}
		if r.Start < end {
			t.Fatalf("region %d [%#x,%#x) overlaps its predecessor", i, r.Start, r.End())
		}
		end = r.End()
		if mem.FindRegion(r.Start, len(r.Data)) != r {
			t.Fatalf("region %q at %#x not found", r.Name, r.Start)
		}
	}
}

func TestCallAndRet(t *testing.T) {
	// Outer function calls a helper: f(x) = g(x) + 1 where g(x) = x*2.
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		g := b.NewLabel()
		b.I(x86.SUB, x86.R64(x86.RSP), x86.Imm(8, 8)) // align
		b.CallLabel(g)
		b.I(x86.ADD, x86.R64(x86.RSP), x86.Imm(8, 8))
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
		b.Ret()
		b.Bind(g)
		b.I(x86.LEA, x86.R64(x86.RAX), x86.MemBIS(8, x86.RDI, x86.RDI, 1, 0))
		b.Ret()
	})
	got, err := m.Call(entry, CallArgs{Ints: []uint64{21}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 43 {
		t.Errorf("f(21) = %d, want 43", got)
	}
}

func TestCycleAccounting(t *testing.T) {
	m, entry := buildAndLoad(t, func(b *asm.Builder) {
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDI))
		b.Ret()
	})
	m.ResetStats()
	if _, err := m.Call(entry, CallArgs{Ints: []uint64{1}}, 100); err != nil {
		t.Fatal(err)
	}
	if m.InstCount != 2 {
		t.Errorf("InstCount = %d, want 2", m.InstCount)
	}
	if m.Cycles <= 0 {
		t.Errorf("Cycles = %v, want > 0", m.Cycles)
	}
}

func TestCostModelPenalties(t *testing.T) {
	c := HaswellModel()
	if p := c.MemPenalty(64, 16, false); p != 0 {
		t.Errorf("aligned access penalty %v, want 0", p)
	}
	if p := c.MemPenalty(56, 16, false); p <= 0 {
		t.Errorf("line-splitting access must be penalized, got %v", p)
	}
	if p := c.MemPenalty(8, 16, false); p != c.UnalignedVecPenalty {
		t.Errorf("unaligned-in-line vector access penalty %v", p)
	}
	if c.MemPenalty(56, 16, true) <= c.MemPenalty(56, 16, false) {
		t.Error("split stores must cost more than split loads")
	}
}

func TestShuffles(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	m.XMM[0] = XMMReg{Lo: 1, Hi: 2}
	m.XMM[1] = XMMReg{Lo: 3, Hi: 4}
	in := &x86.Inst{Op: x86.UNPCKLPD, Dst: x86.X(x86.XMM0), Src: x86.X(x86.XMM1)}
	if err := m.execSSE(in); err != nil {
		t.Fatal(err)
	}
	if m.XMM[0] != (XMMReg{Lo: 1, Hi: 3}) {
		t.Errorf("unpcklpd: %+v", m.XMM[0])
	}
	m.XMM[0] = XMMReg{Lo: 1, Hi: 2}
	in = &x86.Inst{Op: x86.SHUFPD, Dst: x86.X(x86.XMM0), Src: x86.X(x86.XMM1), Src2: x86.Imm(1, 1)}
	if err := m.execSSE(in); err != nil {
		t.Fatal(err)
	}
	if m.XMM[0] != (XMMReg{Lo: 2, Hi: 3}) {
		t.Errorf("shufpd 1: %+v", m.XMM[0])
	}
}

func TestMovsdZeroing(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	buf := m.Mem.Alloc(16, 16, "buf")
	m.Mem.WriteFloat64(buf.Start, 7)
	m.XMM[2] = XMMReg{Lo: 111, Hi: 222}
	// Load form zeroes the upper lane.
	in := &x86.Inst{Op: x86.MOVSD_X, Dst: x86.X(x86.XMM2), Src: x86.MemBD(8, x86.RDI, 0)}
	m.GPR[x86.RDI] = buf.Start
	if err := m.execSSE(in); err != nil {
		t.Fatal(err)
	}
	if m.XMM[2].Hi != 0 {
		t.Error("movsd load must zero upper lane")
	}
	// Register form preserves it.
	m.XMM[3] = XMMReg{Lo: 5, Hi: 999}
	in = &x86.Inst{Op: x86.MOVSD_X, Dst: x86.X(x86.XMM3), Src: x86.X(x86.XMM2)}
	if err := m.execSSE(in); err != nil {
		t.Fatal(err)
	}
	if m.XMM[3].Hi != 999 {
		t.Error("movsd reg-reg must preserve upper lane")
	}
}
