package jit

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/x86/asm"
)

// TestTraceReplayCyclesAtBinades enters traced loops with Cycles preset
// where the per-binade replay of a trace run changes its course: below 2^20
// with the boundary crossed mid-run, below 2^52 where the run crosses into
// the binade in which the 0.5-cycle costs tie, at 2^52 and 2^53 (ties, step
// by step), and at 2^60, where every step cost rounds to nothing. The four
// engines must agree on Cycles bit for bit, with the rest of the state.
func TestTraceReplayCyclesAtBinades(t *testing.T) {
	const n = 3000
	kernels := []struct {
		name  string
		build func(b *asm.Builder)
		data  func(m *emu.Machine, mem *emu.Memory) *emu.Region
	}{
		{"alu loop", traceLoop(n), func(*emu.Machine, *emu.Memory) *emu.Region { return nil }},
		{"call loop", func(b *asm.Builder) {
			leaf := b.NewLabel()
			callDriver(b, n, func() { b.CallLabel(leaf) })
			b.Bind(leaf)
			sseLeaf(b)
		}, callData(n)},
	}
	presets := []float64{
		math.Ldexp(1, 20) - 1000.3,
		math.Nextafter(math.Ldexp(1, 20), 0),
		math.Ldexp(1, 52) - 5000,
		math.Ldexp(1, 52),
		math.Ldexp(1, 53),
		math.Ldexp(1, 60),
	}
	for _, k := range kernels {
		code := assembleAt(t, 0x5000, k.build)
		for _, c0 := range presets {
			before := emu.ReadTraceStats()
			setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
				m.Cycles = c0
				return k.data(m, mem)
			}
			ref := fpDiffAll(t, fmt.Sprintf("%s from %v cycles", k.name, c0), code, 0, 2, setup)
			if st := emu.ReadTraceStats(); st.Iters-before.Iters < n {
				t.Fatalf("%s from %v: %d trace iterations, want at least %d", k.name, c0, st.Iters-before.Iters, n)
			}
			if c0 < math.Ldexp(1, 53) && ref.cycles <= c0 {
				t.Fatalf("%s from %v: cycles did not grow (%v)", k.name, c0, ref.cycles)
			}
		}
	}
}
