package emu

import (
	"math/big"
	"testing"

	"repro/internal/x86"
)

// TestIntCarryFlags holds the kernel's add and subtract with carry to
// arithmetic on unbounded integers: CF is the carry out of the width, OF
// the signed result leaving the width's range, AF the carry out of bit 3
// (bit 4 of a^b^res), and ZF, SF and PF follow the result. The operands
// cover the edges where an implementation that folds the carry into b
// wraps: all ones and the largest positive value, with a carry in.
func TestIntCarryFlags(t *testing.T) {
	for _, sz := range []uint8{1, 2, 4, 8} {
		w := uint(sz) * 8
		mask := ^uint64(0) >> (64 - w)
		edges := []uint64{0, 1, 0xF, 0x10, mask >> 1, mask>>1 + 1, mask}
		for _, op := range []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB} {
			for _, a := range edges {
				for _, b := range edges {
					for _, cf := range []bool{false, true} {
						in := x86.Inst{Op: op, Dst: x86.RegOp(x86.RAX, sz), Src: x86.RegOp(x86.RCX, sz)}
						f := Flags{CF: cf}
						res, _, _ := Int(&in, a, b, &f)
						c := int64(0)
						if cf && (op == x86.ADC || op == x86.SBB) {
							c = 1
						}
						sub := op == x86.SUB || op == x86.SBB
						u := wide(a, b, c, false, sub)
						s := wide(uint64(signExtend(a, sz)), uint64(signExtend(b, sz)), c, true, sub)
						wantRes := new(big.Int).And(u, new(big.Int).SetUint64(mask)).Uint64()
						want := Flags{
							CF: u.Sign() < 0 || u.BitLen() > int(w),
							OF: s.Cmp(big.NewInt(-1<<(w-1))) < 0 || s.Cmp(new(big.Int).Lsh(big.NewInt(1), w-1)) >= 0,
							AF: (a^b^res)&0x10 != 0,
							ZF: res == 0, SF: res>>(w-1) == 1, PF: parity(res),
						}
						if res != wantRes || f != want {
							t.Fatalf("%v width %d %#x, %#x, CF=%v: %#x %+v, want %#x %+v",
								op, sz, a, b, cf, res, f, wantRes, want)
						}
					}
				}
			}
		}
	}
}

// wide returns a + b + c, or a - b - c, on unbounded integers, the
// operands taken as signed or unsigned 64-bit values.
func wide(a, b uint64, c int64, signed, sub bool) *big.Int {
	x, y := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
	if signed {
		x, y = big.NewInt(int64(a)), big.NewInt(int64(b))
	}
	if sub {
		return x.Sub(x, y).Sub(x, big.NewInt(c))
	}
	return x.Add(x, y).Add(x, big.NewInt(c))
}

// TestIntIMulOverflow holds the kernel's truncating multiply to what the
// hardware reports: CF = OF = 1 exactly when the signed product does not
// fit the operand width. The 8-byte rows are the ones a product computed
// in int64 gets wrong, since there every product "fits".
func TestIntIMulOverflow(t *testing.T) {
	const min64 = 0x8000000000000000
	rows := []struct {
		op    x86.Op
		sz    uint8
		a, b  uint64
		res   uint64
		ovflo bool
	}{
		{x86.IMUL, 8, 1 << 32, 1 << 32, 0, true},
		{x86.IMUL, 8, 1 << 32, 1 << 31, min64, true},
		{x86.IMUL, 8, -(1 << 32) & (1<<64 - 1), 1 << 31, min64, false},
		{x86.IMUL, 8, 1 << 32, 1<<32 - 1, 0xFFFFFFFF00000000, true},
		{x86.IMUL, 8, 0x7FFFFFFFFFFFFFFF, 2, 0xFFFFFFFFFFFFFFFE, true},
		{x86.IMUL, 8, min64, 1<<64 - 1, min64, true},
		{x86.IMUL, 8, min64, 1, min64, false},
		{x86.IMUL, 8, 1<<64 - 1, 1<<64 - 1, 1, false},
		{x86.IMUL, 8, 0x100000001, 0xFFFFFFFF, 1<<64 - 1, true},
		{x86.IMUL, 8, 1<<64 - 3, 5, 1<<64 - 15, false},
		{x86.IMUL3, 8, 0x4000000000000000, 2, min64, true},
		{x86.IMUL3, 8, 0x4000000000000000, 1<<64 - 2, min64, false},
		{x86.IMUL, 4, 1 << 16, 1 << 16, 0, true},
		{x86.IMUL, 4, 0xFFFFFFFF, 0xFFFFFFFF, 1, false},
		{x86.IMUL, 4, 0x80000000, 0xFFFFFFFF, 0x80000000, true},
		{x86.IMUL, 2, 1 << 8, 1 << 8, 0, true},
		{x86.IMUL, 2, 0xFF00, 0x80, 0x8000, false},
	}
	for _, r := range rows {
		in := x86.Inst{Op: r.op, Dst: x86.RegOp(x86.RAX, r.sz), Src: x86.RegOp(x86.RCX, r.sz)}
		if r.op == x86.IMUL3 {
			in.Src, in.Src2 = x86.RegOp(x86.RCX, r.sz), x86.Imm(int64(r.b), r.sz)
		}
		f := Flags{AF: true}
		res, defined, _ := Int(&in, r.a, r.b, &f)
		if res != r.res || f.CF != r.ovflo || f.OF != r.ovflo || !f.AF || defined != x86.FlagCF|x86.FlagOF {
			t.Errorf("%v width %d %#x * %#x: %#x CF=%v OF=%v AF=%v defined %v, want %#x CF=OF=%v AF kept",
				r.op, r.sz, r.a, r.b, res, f.CF, f.OF, f.AF, defined, r.res, r.ovflo)
		}
	}
}
