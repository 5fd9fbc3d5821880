package emu

import "testing"

// TestMemPenaltyLineOffsetPaths pins CostModel.MemPenalty over both ways it
// finds an access's offset in its cache line — the mask for power-of-two
// lines, the modulo for everything else — against the plain formula, bit for
// bit, including the addresses around every line boundary.
func TestMemPenaltyLineOffsetPaths(t *testing.T) {
	reference := func(c *CostModel, addr uint64, size int, write bool) float64 {
		var p float64
		if size == 16 && addr%16 != 0 {
			p += c.UnalignedVecPenalty
		}
		if addr%c.LineSize+uint64(size) > c.LineSize {
			p += c.SplitPenalty
			if write {
				p += c.SplitPenalty
			}
		}
		return p
	}
	for _, tc := range []struct {
		line uint64
		mask bool
	}{
		{64, true}, {128, true}, {32, true}, {1, true}, // power of two: mask
		{48, false}, {96, false}, {100, false}, {3, false}, // otherwise: modulo
	} {
		c := HaswellModel()
		c.LineSize = tc.line
		if pow2 := tc.line&(tc.line-1) == 0; pow2 != tc.mask {
			t.Fatalf("line %d: table says mask=%v", tc.line, tc.mask)
		}
		bases := []uint64{0, tc.line, 7 * tc.line, 1<<40 + 3*tc.line, ^uint64(0) - 4*tc.line + 1}
		for _, base := range bases {
			for off := uint64(0); off < 2*tc.line+16; off++ {
				addr := base + off - 8
				for _, size := range []int{1, 2, 4, 8, 16} {
					for _, write := range []bool{false, true} {
						got, want := c.MemPenalty(addr, size, write), reference(c, addr, size, write)
						if got != want {
							t.Fatalf("line %d addr %#x size %d write %v: penalty %v, want %v",
								tc.line, addr, size, write, got, want)
						}
					}
				}
			}
		}
	}
}
