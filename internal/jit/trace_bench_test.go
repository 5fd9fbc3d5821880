package jit

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// alukernCode is the BenchmarkEmuEngines kernel: a loop-dominated integer
// mix (ALU chain, address arithmetic, a memory round-trip, a compare-driven
// cmov) of 18 instructions per iteration — the shape the trace tier is
// built for. rdi = scratch buffer, rsi = iteration count.
func alukernCode(t testing.TB) []byte {
	return assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RDX), x86.Imm(0x9E3779B9, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RSI))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDX))
		b.I(x86.XOR, x86.R64(x86.RDX), x86.R64(x86.RAX))
		b.I(x86.SHR, x86.R64(x86.RDX), x86.Imm(7, 1))
		b.I(x86.LEA, x86.R64(x86.R8), x86.MemBIS(8, x86.RAX, x86.RDX, 4, 13))
		b.I(x86.IMUL3, x86.R64(x86.R8), x86.R64(x86.R8), x86.Imm(0x85EB, 4))
		b.I(x86.AND, x86.R64(x86.R8), x86.Imm(0xFF8, 8))
		b.I(x86.MOV, x86.R64(x86.R9), x86.MemBIS(8, x86.RDI, x86.R8, 1, 0))
		b.I(x86.ADD, x86.R64(x86.R9), x86.R64(x86.RAX))
		b.I(x86.MOV, x86.MemBIS(8, x86.RDI, x86.R8, 1, 0), x86.R64(x86.R9))
		b.I(x86.MOV, x86.R64(x86.R10), x86.R64(x86.RDX))
		b.I(x86.SHL, x86.R64(x86.R10), x86.Imm(3, 1))
		b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(x86.R10))
		b.I(x86.CMP, x86.R64(x86.RAX), x86.R64(x86.RDX))
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondB, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RDX)})
		b.I(x86.MOVZX, x86.R64(x86.R11), x86.R8L(x86.RDX))
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.R11))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
}

// BenchmarkEmuEngines measures the execution tiers on the same
// loop-dominated kernel: "interp" dispatches per instruction, "blocks"
// runs pre-bound translated blocks, "tracevm" compiles the hot loop
// through lift -> opt -> the trace VM, and "traces" carries it the rest of
// the way to native x86-64.
func BenchmarkEmuEngines(b *testing.B) {
	const iters = 4096
	code := alukernCode(b)
	bench := func(b *testing.B, mode engineMode, noNative bool) {
		mem := emu.NewMemory(0x1000000)
		if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
			b.Fatal(err)
		}
		buf := mem.Alloc(4096, 64, "buf")
		m := emu.NewMachine(mem)
		configure(m, mode)
		m.TraceOpts = emu.TraceOptions{NoNativeTraces: noNative} // defaults: realistic thresholds
		var insts uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			args := emu.CallArgs{Ints: []uint64{buf.Start, iters}}
			if _, err := m.Call(0x5000, args, 0); err != nil {
				b.Fatal(err)
			}
			insts += m.InstCount
		}
		b.StopTimer()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(insts)/s, "inst/s")
		}
	}
	b.Run("interp", func(b *testing.B) { bench(b, modeInterp, false) })
	b.Run("blocks", func(b *testing.B) { bench(b, modeBlocks, false) })
	b.Run("tracevm", func(b *testing.B) { bench(b, modeTraces, true) })
	b.Run("traces", func(b *testing.B) { bench(b, modeTraces, false) })
}

// BenchmarkEmuLinked measures the linked-kernel shape: two adjacent
// do-while loops whose traces hand off to each other through the
// trace-to-trace link cache, re-entered by an outer loop too large to
// trace. "blocks" is the no-trace baseline; "tracevm" and "traces" split
// the win between trace compilation and native emission + linking.
func BenchmarkEmuLinked(b *testing.B) {
	code := assembleAt(b, 0x5000, linkedLoops(64, 40, 40))
	bench := func(b *testing.B, mode engineMode, noNative bool) {
		mem := emu.NewMemory(0x1000000)
		if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
			b.Fatal(err)
		}
		m := emu.NewMachine(mem)
		configure(m, mode)
		m.TraceOpts = emu.TraceOptions{NoNativeTraces: noNative}
		var insts uint64
		before := emu.ReadTraceStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Reset()
			if _, err := m.Call(0x5000, emu.CallArgs{}, 0); err != nil {
				b.Fatal(err)
			}
			insts += m.InstCount
		}
		b.StopTimer()
		after := emu.ReadTraceStats()
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(insts)/s, "inst/s")
		}
		// Links per run, so the traces row shows the hand-off happening;
		// TestTraceLinkAdjacentLoops asserts that it does.
		b.ReportMetric(float64(after.Links-before.Links), "links")
	}
	b.Run("blocks", func(b *testing.B) { bench(b, modeBlocks, false) })
	b.Run("tracevm", func(b *testing.B) { bench(b, modeTraces, true) })
	b.Run("traces", func(b *testing.B) { bench(b, modeTraces, false) })
}
