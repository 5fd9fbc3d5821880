package emu

import (
	"math"
	"testing"

	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// run assembles a snippet, executes it with the given initial register
// state, and returns the machine for inspection.
func run(t *testing.T, init func(m *Machine), build func(b *asm.Builder)) *Machine {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	b.Ret()
	code, _, err := b.Assemble(0x5000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mem := NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(mem)
	if init != nil {
		init(m)
	}
	if _, err := m.Call(0x5000, CallArgs{}, 10000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestMovzxMovsx(t *testing.T) {
	m := run(t, func(m *Machine) { m.GPR[x86.RBX] = 0xFFFF_FFFF_FFFF_FF80 }, func(b *asm.Builder) {
		b.I(x86.MOVZX, x86.R64(x86.RAX), x86.R8L(x86.RBX))
		b.I(x86.MOVSX, x86.R64(x86.RCX), x86.R8L(x86.RBX))
		b.I(x86.MOVZX, x86.R32(x86.RDX), x86.R16(x86.RBX))
		b.I(x86.MOVSXD, x86.R64(x86.RSI), x86.R32(x86.RBX))
	})
	if m.GPR[x86.RAX] != 0x80 {
		t.Errorf("movzx: %#x", m.GPR[x86.RAX])
	}
	if m.GPR[x86.RCX] != 0xFFFF_FFFF_FFFF_FF80 {
		t.Errorf("movsx: %#x", m.GPR[x86.RCX])
	}
	if m.GPR[x86.RDX] != 0xFF80 {
		t.Errorf("movzx16: %#x", m.GPR[x86.RDX])
	}
	if m.GPR[x86.RSI] != 0xFFFF_FFFF_FFFF_FF80 {
		t.Errorf("movsxd: %#x", m.GPR[x86.RSI])
	}
}

func TestDivIdiv(t *testing.T) {
	m := run(t, func(m *Machine) {
		neg35 := int64(-35)
		m.GPR[x86.RAX] = uint64(neg35)
		m.GPR[x86.RBX] = 4
	}, func(b *asm.Builder) {
		b.I(x86.CQO)
		b.I(x86.IDIV, x86.R64(x86.RBX))
	})
	if int64(m.GPR[x86.RAX]) != -8 || int64(m.GPR[x86.RDX]) != -3 {
		t.Errorf("idiv: q=%d r=%d", int64(m.GPR[x86.RAX]), int64(m.GPR[x86.RDX]))
	}

	m = run(t, func(m *Machine) {
		m.GPR[x86.RAX] = 35
		m.GPR[x86.RDX] = 0
		m.GPR[x86.RBX] = 4
	}, func(b *asm.Builder) {
		b.I(x86.DIV, x86.R64(x86.RBX))
	})
	if m.GPR[x86.RAX] != 8 || m.GPR[x86.RDX] != 3 {
		t.Errorf("div: q=%d r=%d", m.GPR[x86.RAX], m.GPR[x86.RDX])
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	b := asm.NewBuilder()
	b.I(x86.XOR, x86.R32(x86.RBX), x86.R32(x86.RBX))
	b.I(x86.IDIV, x86.R64(x86.RBX))
	b.Ret()
	code, _, _ := b.Assemble(0x5000)
	mem := NewMemory(0x1000000)
	mem.MapBytes(0x5000, code, "code")
	m := NewMachine(mem)
	if _, err := m.Call(0x5000, CallArgs{}, 100); err == nil {
		t.Fatal("divide by zero must fault")
	}
}

func TestRotates(t *testing.T) {
	m := run(t, func(m *Machine) { m.GPR[x86.RAX] = 0x8000000000000001 }, func(b *asm.Builder) {
		b.I(x86.ROL, x86.R64(x86.RAX), x86.Imm(1, 1))
	})
	if m.GPR[x86.RAX] != 3 {
		t.Errorf("rol: %#x", m.GPR[x86.RAX])
	}
	m = run(t, func(m *Machine) { m.GPR[x86.RAX] = 3 }, func(b *asm.Builder) {
		b.I(x86.ROR, x86.R64(x86.RAX), x86.Imm(1, 1))
	})
	if m.GPR[x86.RAX] != 0x8000000000000001 {
		t.Errorf("ror: %#x", m.GPR[x86.RAX])
	}
	// CF is the bit rotated into the end, OF the top bit XOR the bit beside
	// it in the rotation, whatever CF held before.
	m = run(t, nil, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(1, 8))
		b.I(x86.CLC)
		b.I(x86.ROR, x86.R64(x86.RAX), x86.Imm(1, 1))
	})
	if m.GPR[x86.RAX] != 1<<63 || !m.Flags.CF || !m.Flags.OF {
		t.Errorf("ror 1 by 1: %#x with flags %+v, want CF and OF set", m.GPR[x86.RAX], m.Flags)
	}
	m = run(t, func(m *Machine) { m.GPR[x86.RAX], m.Flags.CF = 0x40, true }, func(b *asm.Builder) {
		b.I(x86.ROL, x86.R8L(x86.RAX), x86.Imm(2, 1))
	})
	if m.GPR[x86.RAX] != 1 || !m.Flags.CF || !m.Flags.OF {
		t.Errorf("rol 0x40 by 2 in al: %#x with flags %+v, want CF and OF set", m.GPR[x86.RAX], m.Flags)
	}
}

func TestVariableShift(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.GPR[x86.RAX] = 1
		m.GPR[x86.RCX] = 68 // masked to 4 for 64-bit shifts
	}, func(b *asm.Builder) {
		b.I(x86.SHL, x86.R64(x86.RAX), x86.RegOp(x86.RCX, 1))
	})
	if m.GPR[x86.RAX] != 16 {
		t.Errorf("shl cl: %#x", m.GPR[x86.RAX])
	}
}

func TestSetccAndCmov32ZeroExtend(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.GPR[x86.RAX] = 0xFFFFFFFF_FFFFFFFF
		m.GPR[x86.RBX] = 5
		m.GPR[x86.RCX] = 5
	}, func(b *asm.Builder) {
		b.I(x86.CMP, x86.R64(x86.RBX), x86.R64(x86.RCX))
		// Condition false: cmov32 must still zero the upper half of rax.
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondNE, Dst: x86.R32(x86.RAX), Src: x86.R32(x86.RBX)})
		b.Emit(x86.Inst{Op: x86.SETCC, Cond: x86.CondE, Dst: x86.R8L(x86.RDX)})
	})
	if m.GPR[x86.RAX] != 0xFFFFFFFF {
		t.Errorf("cmov32 not-taken must zero upper half: %#x", m.GPR[x86.RAX])
	}
	if m.GPR[x86.RDX]&0xFF != 1 {
		t.Errorf("sete: %#x", m.GPR[x86.RDX])
	}
}

func TestXchgAndNotNeg(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.GPR[x86.RAX] = 1
		m.GPR[x86.RBX] = 2
	}, func(b *asm.Builder) {
		b.I(x86.XCHG, x86.R64(x86.RAX), x86.R64(x86.RBX))
		b.I(x86.NOT, x86.R64(x86.RAX))
		b.I(x86.NEG, x86.R64(x86.RBX))
	})
	if m.GPR[x86.RAX] != ^uint64(2) {
		t.Errorf("xchg+not: %#x", m.GPR[x86.RAX])
	}
	if int64(m.GPR[x86.RBX]) != -1 {
		t.Errorf("neg: %d", int64(m.GPR[x86.RBX]))
	}
}

func TestIncDecPreserveCF(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.GPR[x86.RAX] = 0
		m.GPR[x86.RBX] = 1
	}, func(b *asm.Builder) {
		b.I(x86.CMP, x86.R64(x86.RAX), x86.R64(x86.RBX)) // 0 < 1: CF=1
		b.I(x86.INC, x86.R64(x86.RAX))
		// CF must survive the inc: adc rdx, 0 adds the carry.
		b.I(x86.XOR, x86.R32(x86.RDX), x86.R32(x86.RDX))
		b.I(x86.CMP, x86.R64(x86.RAX), x86.R64(x86.RBX)) // equal: resets CF... so test differently
	})
	_ = m
	// Direct flag check instead:
	m2 := NewMachine(NewMemory(0x1000))
	m2.Flags.CF = true
	in := &x86.Inst{Op: x86.INC, Dst: x86.R64(x86.RAX)}
	if err := m2.exec(in); err != nil {
		t.Fatal(err)
	}
	if !m2.Flags.CF {
		t.Error("inc must preserve CF")
	}
}

func TestSegmentOverride(t *testing.T) {
	mem := NewMemory(0x1000000)
	tls := mem.Alloc(64, 16, "tls")
	mem.WriteU(tls.Start+0x28, 8, 0xC0DE)
	b := asm.NewBuilder()
	b.I(x86.MOV, x86.R64(x86.RAX), x86.Mem(8, x86.MemArg{
		Base: x86.NoReg, Index: x86.NoReg, Scale: 1, Disp: 0x28, Seg: x86.SegFS}))
	b.Ret()
	code, _, err := b.Assemble(0x5000)
	if err != nil {
		t.Fatal(err)
	}
	mem.MapBytes(0x5000, code, "code")
	m := NewMachine(mem)
	m.FSBase = tls.Start
	got, err := m.Call(0x5000, CallArgs{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xC0DE {
		t.Errorf("fs: load = %#x", got)
	}
}

func TestCallHook(t *testing.T) {
	b := asm.NewBuilder()
	b.Call(0x999000) // external function
	b.Ret()
	code, _, _ := b.Assemble(0x5000)
	mem := NewMemory(0x1000000)
	mem.MapBytes(0x5000, code, "code")
	m := NewMachine(mem)
	hooked := false
	m.CallHook = func(mm *Machine, target uint64) (bool, error) {
		if target == 0x999000 {
			hooked = true
			mm.GPR[x86.RAX] = 77
			return true, nil
		}
		return false, nil
	}
	got, err := m.Call(0x5000, CallArgs{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !hooked || got != 77 {
		t.Errorf("hook: %v, rax %d", hooked, got)
	}
}

func TestCountOps(t *testing.T) {
	m := NewMachine(NewMemory(0x1000000))
	b := asm.NewBuilder()
	b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
	b.I(x86.SUB, x86.R64(x86.RAX), x86.Imm(1, 8))
	b.Ret()
	code, _, _ := b.Assemble(0x5000)
	m.Mem.MapBytes(0x5000, code, "code")
	m.CountOps = true
	if _, err := m.Call(0x5000, CallArgs{}, 100); err != nil {
		t.Fatal(err)
	}
	if m.OpCount[x86.ADD] != 2 || m.OpCount[x86.SUB] != 1 || m.OpCount[x86.RET] != 1 {
		t.Errorf("op counts: %v", m.OpCount)
	}
}

func TestSSEConversions(t *testing.T) {
	m := run(t, func(m *Machine) { neg7 := int64(-7); m.GPR[x86.RAX] = uint64(neg7) }, func(b *asm.Builder) {
		b.I(x86.CVTSI2SD, x86.X(x86.XMM0), x86.R64(x86.RAX))
		b.I(x86.CVTSD2SS, x86.X(x86.XMM1), x86.X(x86.XMM0))
		b.I(x86.CVTSS2SD, x86.X(x86.XMM2), x86.X(x86.XMM1))
		b.I(x86.CVTTSD2SI, x86.R64(x86.RBX), x86.X(x86.XMM2))
	})
	if math.Float64frombits(m.XMM[0].Lo) != -7 {
		t.Errorf("cvtsi2sd: %x", m.XMM[0].Lo)
	}
	if int64(m.GPR[x86.RBX]) != -7 {
		t.Errorf("cvttsd2si round trip: %d", int64(m.GPR[x86.RBX]))
	}
	// Into a 32-bit register, NaN, the infinities and every value outside
	// int32 give 0x80000000; into a 64-bit one, outside int64 gives 1<<63.
	for _, c := range []struct {
		v    float64
		dst  x86.Operand
		want uint64
	}{
		{-7.9, x86.R32(x86.RBX), 0xFFFFFFF9},
		{2147483647.9, x86.R32(x86.RBX), 0x7FFFFFFF},
		{-2147483648.9, x86.R32(x86.RBX), 0x80000000},
		{3e9, x86.R32(x86.RBX), 0x80000000},
		{-2147483649, x86.R32(x86.RBX), 0x80000000},
		{math.NaN(), x86.R32(x86.RBX), 0x80000000},
		{math.Inf(1), x86.R32(x86.RBX), 0x80000000},
		{math.Inf(-1), x86.R32(x86.RBX), 0x80000000},
		{3e9, x86.R64(x86.RBX), 3000000000},
		{0x1p63, x86.R64(x86.RBX), 1 << 63},
		{math.NaN(), x86.R64(x86.RBX), 1 << 63},
	} {
		m := run(t, func(m *Machine) {
			m.XMM[0].Lo, m.GPR[x86.RBX] = math.Float64bits(c.v), ^uint64(0)
		}, func(b *asm.Builder) {
			b.I(x86.CVTTSD2SI, c.dst, x86.X(x86.XMM0))
		})
		if m.GPR[x86.RBX] != c.want {
			t.Errorf("cvttsd2si of %g into %d bytes = %#x, want %#x", c.v, c.dst.Size, m.GPR[x86.RBX], c.want)
		}
	}
}

func TestPackedIntAndShuffles(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.XMM[0] = XMMReg{Lo: 10, Hi: 20}
		m.XMM[1] = XMMReg{Lo: 1, Hi: 2}
	}, func(b *asm.Builder) {
		b.I(x86.PADDQ, x86.X(x86.XMM0), x86.X(x86.XMM1))      // [11, 22]
		b.I(x86.PSUBQ, x86.X(x86.XMM0), x86.X(x86.XMM1))      // [10, 20]
		b.I(x86.PUNPCKLQDQ, x86.X(x86.XMM0), x86.X(x86.XMM1)) // [10, 1]
	})
	if m.XMM[0] != (XMMReg{Lo: 10, Hi: 1}) {
		t.Errorf("packed int chain: %+v", m.XMM[0])
	}
}

func TestPshufdAndShufps(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.XMM[1] = FromLanes32([4]uint32{1, 2, 3, 4})
	}, func(b *asm.Builder) {
		b.I(x86.PSHUFD, x86.X(x86.XMM0), x86.X(x86.XMM1), x86.Imm(0x1B, 1)) // reverse
	})
	if m.XMM[0].Lanes32() != [4]uint32{4, 3, 2, 1} {
		t.Errorf("pshufd: %v", m.XMM[0].Lanes32())
	}
}

func TestMovmskpd(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.XMM[0] = XMMReg{Lo: f64bits(-1.0), Hi: f64bits(2.0)}
	}, func(b *asm.Builder) {
		b.I(x86.MOVMSKPD, x86.R32(x86.RAX), x86.X(x86.XMM0))
	})
	if m.GPR[x86.RAX] != 1 {
		t.Errorf("movmskpd: %#x", m.GPR[x86.RAX])
	}
}

func TestMinMaxSqrt(t *testing.T) {
	m := run(t, func(m *Machine) {
		m.XMM[0] = XMMReg{Lo: f64bits(9.0)}
		m.XMM[1] = XMMReg{Lo: f64bits(4.0)}
	}, func(b *asm.Builder) {
		b.I(x86.MINSD, x86.X(x86.XMM0), x86.X(x86.XMM1))  // 4
		b.I(x86.SQRTSD, x86.X(x86.XMM2), x86.X(x86.XMM0)) // 2
		b.I(x86.MAXSD, x86.X(x86.XMM2), x86.X(x86.XMM1))  // 4
	})
	if f64frombits(m.XMM[2].Lo) != 4 {
		t.Errorf("min/max/sqrt chain: %g", f64frombits(m.XMM[2].Lo))
	}
	// minsd and maxsd keep the destination only when it compares strictly
	// less (greater): a NaN in either operand and a tie of +0 and -0 give
	// the source, and the upper lane is the destination's.
	nan, one, pz, nz := f64bits(math.NaN()), f64bits(1), uint64(0), uint64(1)<<63
	for _, c := range []struct {
		op             x86.Op
		dst, src, want uint64
	}{
		{x86.MINSD, nan, one, one},
		{x86.MINSD, one, nan, nan},
		{x86.MINSD, pz, nz, nz},
		{x86.MINSD, nz, pz, pz},
		{x86.MAXSD, nan, one, one},
		{x86.MAXSD, one, nan, nan},
		{x86.MAXSD, pz, nz, nz},
		{x86.MAXSD, nz, pz, pz},
	} {
		m := run(t, func(m *Machine) {
			m.XMM[0], m.XMM[1] = XMMReg{Lo: c.dst, Hi: 7}, XMMReg{Lo: c.src, Hi: 9}
		}, func(b *asm.Builder) {
			b.I(c.op, x86.X(x86.XMM0), x86.X(x86.XMM1))
		})
		if m.XMM[0] != (XMMReg{Lo: c.want, Hi: 7}) {
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", c.op, c.dst, c.src, m.XMM[0], XMMReg{Lo: c.want, Hi: 7})
		}
	}
}

func TestMovHLpd(t *testing.T) {
	mem := NewMemory(0x1000000)
	buf := mem.Alloc(32, 16, "buf")
	mem.WriteFloat64(buf.Start, 1.5)
	mem.WriteFloat64(buf.Start+8, 2.5)
	b := asm.NewBuilder()
	b.I(x86.MOVLPD, x86.X(x86.XMM0), x86.MemBD(8, x86.RDI, 0))
	b.I(x86.MOVHPD, x86.X(x86.XMM0), x86.MemBD(8, x86.RDI, 8))
	b.I(x86.MOVHPD, x86.MemBD(8, x86.RDI, 16), x86.X(x86.XMM0))
	b.Ret()
	code, _, _ := b.Assemble(0x5000)
	mem.MapBytes(0x5000, code, "code")
	m := NewMachine(mem)
	if _, err := m.Call(0x5000, CallArgs{Ints: []uint64{buf.Start}}, 100); err != nil {
		t.Fatal(err)
	}
	if f64frombits(m.XMM[0].Lo) != 1.5 || f64frombits(m.XMM[0].Hi) != 2.5 {
		t.Errorf("movlpd/movhpd: %+v", m.XMM[0])
	}
	v, _ := mem.ReadFloat64(buf.Start + 16)
	if v != 2.5 {
		t.Errorf("movhpd store: %g", v)
	}
}

func TestAlignedMoveFaultsOnMisalignment(t *testing.T) {
	mem := NewMemory(0x1000000)
	buf := mem.Alloc(64, 16, "buf")
	b := asm.NewBuilder()
	b.I(x86.MOVAPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDI, 8)) // misaligned
	b.Ret()
	code, _, _ := b.Assemble(0x5000)
	mem.MapBytes(0x5000, code, "code")
	m := NewMachine(mem)
	if _, err := m.Call(0x5000, CallArgs{Ints: []uint64{buf.Start}}, 100); err == nil {
		t.Fatal("movapd from unaligned address must fault")
	}
}

func TestUD2Faults(t *testing.T) {
	b := asm.NewBuilder()
	b.I(x86.UD2)
	code, _, _ := b.Assemble(0x5000)
	mem := NewMemory(0x1000000)
	mem.MapBytes(0x5000, code, "code")
	m := NewMachine(mem)
	if _, err := m.Call(0x5000, CallArgs{}, 100); err == nil {
		t.Fatal("ud2 must fault")
	}
}

func TestPopcnt(t *testing.T) {
	m := run(t, func(m *Machine) { m.GPR[x86.RBX] = 0xF0F0 }, func(b *asm.Builder) {
		b.I(x86.POPCNT, x86.R64(x86.RAX), x86.R64(x86.RBX))
	})
	if m.GPR[x86.RAX] != 8 {
		t.Errorf("popcnt: %d", m.GPR[x86.RAX])
	}
	// popcnt clears OF, SF, AF, CF and PF and sets ZF for a zero source,
	// whatever the count's parity: 7 counts 3, whose parity is even.
	all := Flags{CF: true, PF: true, AF: true, ZF: true, SF: true, OF: true}
	for _, c := range []struct {
		src, count uint64
		want       Flags
	}{{7, 3, Flags{}}, {0, 0, Flags{ZF: true}}} {
		m := run(t, func(m *Machine) { m.GPR[x86.RBX], m.Flags = c.src, all }, func(b *asm.Builder) {
			b.I(x86.POPCNT, x86.R64(x86.RAX), x86.R64(x86.RBX))
		})
		if m.GPR[x86.RAX] != c.count || m.Flags != c.want {
			t.Errorf("popcnt %d: %d with flags %+v, want %d with %+v", c.src, m.GPR[x86.RAX], m.Flags, c.count, c.want)
		}
	}
}
