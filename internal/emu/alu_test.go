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
						res, f, _, _ := Int(&in, a, b, Flags{CF: cf})
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
