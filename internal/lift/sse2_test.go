package lift

import (
	"math"
	"testing"

	"repro/internal/abi"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// ssePair loads two 16-byte vectors from rdi/rdi+16, applies build, and
// returns xmm0's low half as the f64 result; the cross-check compares the
// lifted IR against the emulator on the same memory image.
func ssePairCheck(t *testing.T, vals [4]float64, build func(b *asm.Builder)) {
	t.Helper()
	mem := buildFunc(t, func(b *asm.Builder) {
		b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDI, 0))
		b.I(x86.MOVUPD, x86.X(x86.XMM1), x86.MemBD(16, x86.RDI, 16))
		build(b)
		b.Ret()
	})
	buf := mem.Alloc(32, 16, "buf")
	for i, v := range vals {
		if err := mem.WriteFloat64(buf.Start+uint64(8*i), v); err != nil {
			t.Fatal(err)
		}
	}
	sig := abi.Signature{Params: []abi.Class{abi.ClassPtr}, Ret: abi.ClassF64}
	got, lifted := crossCheck(t, mem, sig, DefaultOptions(), []uint64{buf.Start}, nil)
	if lifted != got {
		t.Errorf("lifted %#x != machine %#x (%g vs %g)",
			lifted, got, math.Float64frombits(lifted), math.Float64frombits(got))
	}
}

func TestLiftPackedArithVariants(t *testing.T) {
	vals := [4]float64{1.5, -2.25, 4.0, 0.5}
	ops := []x86.Op{x86.ADDPD, x86.SUBPD, x86.MULPD, x86.DIVPD,
		x86.ANDPD, x86.ORPD, x86.XORPD}
	for _, op := range ops {
		op := op
		ssePairCheck(t, vals, func(b *asm.Builder) {
			b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
		})
	}
}

func TestLiftShufpdSelectors(t *testing.T) {
	vals := [4]float64{10, 20, 30, 40}
	for sel := int64(0); sel < 4; sel++ {
		sel := sel
		ssePairCheck(t, vals, func(b *asm.Builder) {
			b.I(x86.SHUFPD, x86.X(x86.XMM0), x86.X(x86.XMM1), x86.Imm(sel, 1))
		})
	}
}

func TestLiftUnpackVariants(t *testing.T) {
	vals := [4]float64{1, 2, 3, 4}
	for _, op := range []x86.Op{x86.UNPCKLPD, x86.UNPCKHPD, x86.PUNPCKLQDQ} {
		op := op
		ssePairCheck(t, vals, func(b *asm.Builder) {
			b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
		})
	}
}

func TestLiftMovmskpd(t *testing.T) {
	// Sign patterns: (+,−) → mask 2, (−,+) → mask 1, etc.
	cases := [][2]float64{{1, -1}, {-1, 1}, {-3, -4}, {5, 6}}
	for _, c := range cases {
		mem := buildFunc(t, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM2), x86.MemBD(16, x86.RDI, 0))
			b.I(x86.MOVMSKPD, x86.R32(x86.RAX), x86.X(x86.XMM2))
			b.Ret()
		})
		buf := mem.Alloc(16, 16, "buf")
		mem.WriteFloat64(buf.Start, c[0])
		mem.WriteFloat64(buf.Start+8, c[1])
		sig := abi.Signature{Params: []abi.Class{abi.ClassPtr}, Ret: abi.ClassInt}
		got, lifted := crossCheck(t, mem, sig, DefaultOptions(), []uint64{buf.Start}, nil)
		want := uint64(0)
		if math.Signbit(c[0]) {
			want |= 1
		}
		if math.Signbit(c[1]) {
			want |= 2
		}
		if got != want || lifted != want {
			t.Errorf("movmskpd(%v): machine %d, lifted %d, want %d", c, got, lifted, want)
		}
	}
}

func TestLiftCvtChain(t *testing.T) {
	// int → ss → sd → int round trip with truncation.
	mem := buildFunc(t, func(b *asm.Builder) {
		b.I(x86.CVTSI2SS, x86.X(x86.XMM0), x86.R64(x86.RDI))
		b.I(x86.CVTSS2SD, x86.X(x86.XMM1), x86.X(x86.XMM0))
		b.I(x86.CVTSD2SS, x86.X(x86.XMM2), x86.X(x86.XMM1))
		b.I(x86.CVTSS2SD, x86.X(x86.XMM3), x86.X(x86.XMM2))
		b.I(x86.CVTTSD2SI, x86.R64(x86.RAX), x86.X(x86.XMM3))
		b.Ret()
	})
	sig := abi.Signature{Params: []abi.Class{abi.ClassInt}, Ret: abi.ClassInt}
	for _, n := range []uint64{0, 7, 1 << 20} {
		got, lifted := crossCheck(t, mem, sig, DefaultOptions(), []uint64{n}, nil)
		if got != n || lifted != n {
			t.Errorf("cvt chain(%d): machine %d, lifted %d", n, got, lifted)
		}
	}
}

// TestLiftCvttsd2si32Indefinite converts NaN, the infinities and doubles
// outside int32 into a 32-bit register: the lifted IR gives 0x80000000 as
// the machine does, interpreted as lifted and, for a double converted from
// an integer constant, folded to a constant at O3.
func TestLiftCvttsd2si32Indefinite(t *testing.T) {
	const want = 0x80000000
	mem := buildFunc(t, func(b *asm.Builder) {
		b.I(x86.CVTTSD2SI, x86.R32(x86.RAX), x86.X(x86.XMM0))
		b.Ret()
	})
	sig := abi.Signature{Params: []abi.Class{abi.ClassF64}, Ret: abi.ClassInt}
	for _, v := range []float64{3e9, -3e9, -2147483649, math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, lifted := crossCheck(t, mem, sig, DefaultOptions(), nil, []float64{v})
		if got != want || lifted != want {
			t.Errorf("cvttsd2si eax, %g: machine %#x, lifted %#x, want %#x", v, got, lifted, want)
		}
	}
	for _, n := range []int64{3e9, -3e9, -2147483649} {
		cmem := buildFunc(t, func(b *asm.Builder) {
			b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(n, 8))
			b.I(x86.CVTSI2SD, x86.X(x86.XMM0), x86.R64(x86.RAX))
			b.I(x86.CVTTSD2SI, x86.R32(x86.RAX), x86.X(x86.XMM0))
			b.Ret()
		})
		f, err := New(cmem, DefaultOptions()).LiftFunc(codeBase, "f", abi.Sig(abi.ClassInt))
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(f, opt.O3())
		res, err := ir.NewInterp(cmem).CallFunc(f, nil)
		if err != nil || res.Lo != want {
			t.Errorf("cvttsd2si eax of the constant %d at O3: %#x (%v), want %#x\n%s", n, res.Lo, err, want, ir.FormatFunc(f))
		}
	}
}

func TestLiftMinMaxSqrtSd(t *testing.T) {
	vals := [4]float64{9.0, 2.0, 4.0, 16.0}
	// A NaN on either side and a tie of +0 and -0 give the source.
	nan, nz := math.NaN(), math.Copysign(0, -1)
	edges := [][4]float64{vals, {nan, 2, 1, 3}, {1, 2, nan, 3}, {0, 2, nz, 3}, {nz, 2, 0, 3}}
	for _, op := range []x86.Op{x86.MINSD, x86.MAXSD} {
		op := op
		for _, v := range edges {
			ssePairCheck(t, v, func(b *asm.Builder) {
				b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
			})
		}
	}
	ssePairCheck(t, vals, func(b *asm.Builder) {
		b.I(x86.SQRTSD, x86.X(x86.XMM0), x86.X(x86.XMM1))
	})
}

func TestLiftMovhlpd(t *testing.T) {
	vals := [4]float64{1, 2, 3, 4}
	mem := buildFunc(t, func(b *asm.Builder) {
		b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDI, 0))
		b.I(x86.MOVHPD, x86.X(x86.XMM0), x86.MemBD(8, x86.RDI, 16))
		b.I(x86.MOVLPD, x86.X(x86.XMM0), x86.MemBD(8, x86.RDI, 24))
		// Collapse halves so the return observes both.
		b.I(x86.MOVAPS, x86.X(x86.XMM1), x86.X(x86.XMM0))
		b.I(x86.UNPCKHPD, x86.X(x86.XMM1), x86.X(x86.XMM1))
		b.I(x86.ADDSD, x86.X(x86.XMM0), x86.X(x86.XMM1))
		b.Ret()
	})
	buf := mem.Alloc(32, 16, "buf")
	for i, v := range vals {
		mem.WriteFloat64(buf.Start+uint64(8*i), v)
	}
	sig := abi.Signature{Params: []abi.Class{abi.ClassPtr}, Ret: abi.ClassF64}
	got, lifted := crossCheck(t, mem, sig, DefaultOptions(), []uint64{buf.Start}, nil)
	if want := math.Float64bits(4.0 + 3.0); got != want || lifted != want {
		t.Errorf("movhpd/movlpd: machine %g, lifted %g, want 7",
			math.Float64frombits(got), math.Float64frombits(lifted))
	}
}
