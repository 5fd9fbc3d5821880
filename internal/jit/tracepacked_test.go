package jit

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// Tests for the packed SSE2 subset of the trace tier: MOVUPD/MOVAPD loads
// and stores of 16 bytes, ADDPD/SUBPD/MULPD with a register or 16-byte
// memory source, and the memory penalties those accesses carry, which a
// trace logs and charges instead of deoptimizing. Every case runs on the
// interpreter, the block engine, the trace VM and native traces and must
// agree bit for bit on GPR, both XMM lanes, flags, memory, Cycles,
// InstCount, RIP and error text (fpDiffAll). `make race-trace-native` runs
// the battery under -race.

var packedOps = []x86.Op{x86.ADDPD, x86.SUBPD, x86.MULPD}

// packedRef is Go's double arithmetic for op, which on amd64 is the SSE2
// instruction of one lane.
func packedRef(op x86.Op, a, b float64) float64 {
	switch op {
	case x86.ADDPD:
		return a + b
	case x86.SUBPD:
		return a - b
	}
	return a * b
}

// traceDelta is what the trace tier did between two snapshots.
func traceDelta(before, after emu.TraceStats) (compiled, native, runs, iters uint64) {
	return after.Compiled - before.Compiled, after.NativeCompiled - before.NativeCompiled,
		after.Runs - before.Runs, after.Iters - before.Iters
}

// requireTraced fails unless the battery ran the loop in compiled traces,
// natively where the host can, with at least minIters iterations.
func requireTraced(t *testing.T, desc string, before, after emu.TraceStats, minIters uint64) {
	t.Helper()
	compiled, native, _, iters := traceDelta(before, after)
	if compiled == 0 {
		t.Fatalf("%s: no trace compiled (aborts by reason %v)", desc, after.AbortedBy)
	}
	if nativeTraceOK && native == 0 {
		t.Fatalf("%s: traces compiled, none natively", desc)
	}
	if iters < minIters {
		t.Fatalf("%s: %d iterations in traces, want at least %d", desc, iters, minIters)
	}
}

// TestTracePackedOps drives ADDPD, SUBPD and MULPD, in register and memory
// form, over all ordered pairs of fpSpecials in both lanes inside a traced
// loop: the operands come in by MOVUPD from misaligned addresses (so every
// load logs a penalty and some split a line), the result goes out by MOVUPD
// to a misaligned and by MOVAPD to an aligned address and comes back by
// MOVAPD, and a register-form ADDPD accumulates it. The reference is then
// checked against Go's arithmetic lane by lane.
func TestTracePackedOps(t *testing.T) {
	n := len(fpSpecials) * len(fpSpecials)
	for _, op := range packedOps {
		for _, memForm := range []bool{false, true} {
			desc := fmt.Sprintf("%v mem=%v", op, memForm)
			code := assembleAt(t, 0x5000, func(b *asm.Builder) {
				// rdx walks (a, b, result) records of 48 bytes at 8 mod 16,
				// rsi an aligned 16-byte slot per record.
				b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(int64(n), 8))
				loop := b.NewLabel()
				b.Bind(loop)
				b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
				if memForm {
					b.I(op, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 16))
				} else {
					b.I(x86.MOVUPD, x86.X(x86.XMM1), x86.MemBD(16, x86.RDX, 16))
					b.I(op, x86.X(x86.XMM0), x86.X(x86.XMM1))
				}
				b.I(x86.MOVUPD, x86.MemBD(16, x86.RDX, 32), x86.X(x86.XMM0))
				b.I(x86.MOVAPD, x86.X(x86.XMM2), x86.X(x86.XMM0))
				b.I(x86.MOVAPD, x86.MemBD(16, x86.RSI, 0), x86.X(x86.XMM2))
				b.I(x86.MOVAPD, x86.X(x86.XMM3), x86.MemBD(16, x86.RSI, 0))
				b.I(x86.ADDPD, x86.X(x86.XMM4), x86.X(x86.XMM3))
				b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(48, 8))
				b.I(x86.ADD, x86.R64(x86.RSI), x86.Imm(16, 8))
				b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
				b.Jcc(x86.CondNE, loop)
				b.Ret()
			})
			setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
				r := mem.Alloc(48*n+16, 64, "records")
				for i, a := range fpSpecials {
					for j, bv := range fpSpecials {
						d := r.Data[8+48*(i*len(fpSpecials)+j):]
						binary.LittleEndian.PutUint64(d, a)
						binary.LittleEndian.PutUint64(d[8:], bv)
						binary.LittleEndian.PutUint64(d[16:], bv)
						binary.LittleEndian.PutUint64(d[24:], a)
					}
				}
				slots := mem.Alloc(16*n, 64, "slots")
				m.GPR[x86.RDX], m.GPR[x86.RSI] = r.Start+8, slots.Start
				for i := range m.XMM {
					m.XMM[i] = emu.XMMReg{Lo: 0x1111111111111111 * uint64(i+1), Hi: 0xA5A5A5A5A5A5A5A5 ^ uint64(i)}
				}
				return r
			}
			before := emu.ReadTraceStats()
			ref := fpDiffAll(t, desc, code, 0, 6, setup) // past the O3 recompile
			requireTraced(t, desc, before, emu.ReadTraceStats(), uint64(n))
			for k := 0; k < n; k++ {
				d := []byte(ref.scratch[8+48*k:])
				for lane := 0; lane < 2; lane++ {
					a := math.Float64frombits(binary.LittleEndian.Uint64(d[8*lane:]))
					bv := math.Float64frombits(binary.LittleEndian.Uint64(d[16+8*lane:]))
					got := binary.LittleEndian.Uint64(d[32+8*lane:])
					want := packedRef(op, a, bv)
					if math.IsNaN(want) {
						if !math.IsNaN(math.Float64frombits(got)) {
							t.Fatalf("%s: record %d lane %d: got %#x, want a NaN", desc, k, lane, got)
						}
						continue
					}
					if got != math.Float64bits(want) {
						t.Fatalf("%s: record %d lane %d: got %#x, want %#x", desc, k, lane, got, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// packedLoop is a counted loop of n iterations around body, which rdx, rsi
// and rdi may address; xmm1 accumulates.
func packedLoop(n int64, body func(b *asm.Builder)) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(n, 8))
		b.I(x86.XORPD, x86.X(x86.XMM1), x86.X(x86.XMM1))
		loop := b.NewLabel()
		b.Bind(loop)
		body(b)
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	}
}

// packedData allocates size bytes of doubles at a line boundary and points
// rdx, rsi and rdi at the given offsets into it.
func packedData(size int, rdx, rsi, rdi uint64) func(m *emu.Machine, mem *emu.Memory) *emu.Region {
	return func(m *emu.Machine, mem *emu.Memory) *emu.Region {
		r := mem.Alloc(size, 64, "data")
		fpData(r, size/8)
		m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = r.Start+rdx, r.Start+rsi, r.Start+rdi
		return r
	}
}

// TestTracePackedPenalties runs loops whose 16-byte accesses carry a memory
// penalty on every iteration — misaligned inside one line, splitting a line
// on a load and on a store — a CMOVcc whose line-splitting source only a
// taken move reads, and one that logs more accesses than the penalty log
// holds, so its runs end at the iteration cap and re-enter. The
// loops must run in traces, not deoptimize: the penalties are logged and
// charged after the run, bit for bit as the block engine charges them.
func TestTracePackedPenalties(t *testing.T) {
	const iters = 300
	cases := []struct {
		name   string
		n      int64
		body   func(b *asm.Builder)
		data   func(m *emu.Machine, mem *emu.Memory) *emu.Region
		minRun uint64 // least runs over the two traced engines
	}{
		{"MisalignedInLine", iters, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
		}, packedData(128, 8, 0, 64), 1},
		{"LineSplitLoad", iters, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.MULPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RSI, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
		}, packedData(192, 56, 120, 0), 1},
		{"SplitStore", iters, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
			b.I(x86.MOVUPD, x86.MemBD(16, x86.RDI, 0), x86.X(x86.XMM1))
		}, packedData(192, 0, 0, 120), 1},
		{"CmovSource", iters, func(b *asm.Builder) {
			// The move is taken in half the iterations; the emulator reads
			// its line-splitting source only then, and so must the trace.
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RSI, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
			b.I(x86.CMP, x86.R64(x86.RCX), x86.Imm(iters/2, 8))
			b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondB, Dst: x86.R64(x86.RBX), Src: x86.MemBD(8, x86.RDX, 0)})
			b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RBX))
		}, packedData(128, 60, 8, 0), 1},
		{"LongerThanLog", 2000, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.SUBPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RSI, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
			b.I(x86.MOVUPD, x86.MemBD(16, x86.RDI, 0), x86.X(x86.XMM1))
		}, packedData(192, 8, 56, 120), 2 * 2000 * 3 / penLogMin},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code := assembleAt(t, 0x5000, packedLoop(c.n, c.body))
			before := emu.ReadTraceStats()
			ref := fpDiffAll(t, c.name, code, 0, 1, c.data)
			after := emu.ReadTraceStats()
			if ref.errMsg != "" {
				t.Fatalf("reference run failed: %s", ref.errMsg)
			}
			requireTraced(t, c.name, before, after, uint64(c.n))
			_, _, runs, iters := traceDelta(before, after)
			if runs < c.minRun || iters/runs <= 50 {
				t.Fatalf("%d iterations over %d runs, want at least %d runs of more than 50", iters, runs, c.minRun)
			}
			// The loop's own exit is the one deopt a native run may take.
			if n := after.NativeDeopts - before.NativeDeopts; n > 1 {
				t.Fatalf("%d native deopts, want at most the loop's exit", n)
			}
		})
	}
}

// TestTracePackedDeopts lands each access a trace cannot perform on a
// packed instruction in a warm trace: a 16-byte load straddling the end of
// its region (its first 8 bytes mapped), MOVAPD loads and stores that meet
// an unaligned address after 60 aligned iterations, and a 16-byte store into
// the trace's own code. Each must deoptimize before the instruction, so the
// block engine produces the interpreter's fault, its alignment error, or its
// self-modification, and no penalty of the deoptimized access is charged
// twice.
func TestTracePackedDeopts(t *testing.T) {
	t.Run("StraddlesRegionEnd", func(t *testing.T) {
		code := assembleAt(t, 0x5000, packedLoop(100, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
			b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(8, 8))
		}))
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			r := mem.Alloc(64*8, 64, "data") // 63 loads fit; the loop wants 100
			fpData(r, 64)
			mem.Alloc(4096, 4096, "gap") // a page gap: the walk off "data" faults
			m.GPR[x86.RDX] = r.Start
			return r
		}
		if ref := fpDiffAll(t, "straddle", code, 0, 1, setup); ref.errMsg == "" {
			t.Fatal("expected a fault from the reference run")
		}
	})
	for _, store := range []bool{false, true} {
		t.Run(fmt.Sprintf("UnalignedMovapd/store=%v", store), func(t *testing.T) {
			code := assembleAt(t, 0x5000, packedLoop(100, func(b *asm.Builder) {
				b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RSI, 0))
				if store {
					b.I(x86.MOVAPD, x86.MemBIS(16, x86.RDX, x86.RBX, 1, 0), x86.X(x86.XMM1))
				} else {
					b.I(x86.MOVAPD, x86.X(x86.XMM0), x86.MemBIS(16, x86.RDX, x86.RBX, 1, 0))
				}
				b.I(x86.ADDPD, x86.X(x86.XMM1), x86.MemBD(16, x86.RDI, 0))
				b.I(x86.ADD, x86.R64(x86.RSI), x86.Imm(8, 8))
			}))
			setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
				off := mem.Alloc(100*8, 64, "offsets")
				binary.LittleEndian.PutUint64(off.Data[8*60:], 8) // iteration 61 is misaligned
				r := mem.Alloc(64, 64, "data")
				fpData(r, 8)
				m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = r.Start, off.Start, r.Start+8
				return r
			}
			before := emu.ReadTraceStats()
			ref := fpDiffAll(t, "unaligned movapd", code, 0, 1, setup)
			if ref.errMsg == "" {
				t.Fatal("expected an alignment error from the reference run")
			}
			requireTraced(t, "unaligned movapd", before, emu.ReadTraceStats(), 2*50)
		})
	}
	t.Run("LoggedLoadDeoptStore", func(t *testing.T) {
		// add [rdi+rbx], rax reads a line-splitting address (logged), then
		// at iteration 51 its store, into the code, deoptimizes: the block
		// engine re-executes the whole instruction and charges both
		// accesses, so the run must not charge the logged load as well.
		build := packedLoop(80, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
			b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RSI, 0))
			b.I(x86.ADD, x86.MemBIS(8, x86.RDI, x86.RBX, 1, 0), x86.R64(x86.RAX))
			b.I(x86.ADD, x86.R64(x86.RSI), x86.Imm(8, 8))
		})
		code := assembleAt(t, 0x5000, build)
		patch := (0x5000+uint64(len(code))+63)&^63 + 60 // splits a line
		code = append(code, make([]byte, patch+8-0x5000-uint64(len(code)))...)
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			r := mem.Alloc(128, 64, "data")
			fpData(r, 16)
			off := mem.Alloc(80*8, 64, "offsets")
			binary.LittleEndian.PutUint64(off.Data[8*50:], patch-(r.Start+60))
			m.GPR[x86.RDX], m.GPR[x86.RSI], m.GPR[x86.RDI] = r.Start+8, off.Start, r.Start+60
			m.GPR[x86.RAX] = 3
			return r
		}
		before := emu.ReadTraceStats()
		ref := fpDiffAll(t, "logged load, deopting store", code, 0, 1, setup)
		if ref.errMsg != "" {
			t.Fatalf("reference run failed: %s", ref.errMsg)
		}
		requireTraced(t, "logged load, deopting store", before, emu.ReadTraceStats(), 2*40)
	})
	t.Run("SMCStore", func(t *testing.T) {
		build := packedLoop(6, func(b *asm.Builder) {
			b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
			b.I(x86.ADDPD, x86.X(x86.XMM1), x86.X(x86.XMM0))
			b.I(x86.MOVUPD, x86.MemBD(16, x86.RDI, 0), x86.X(x86.XMM1)) // into the code
		})
		code := append(assembleAt(t, 0x5000, build), make([]byte, 64)...) // writable padding after RET
		patch := 0x5000 + uint64(len(code)) - 40                          // misaligned too
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			r := mem.Alloc(64, 64, "data")
			fpData(r, 8)
			m.GPR[x86.RDX], m.GPR[x86.RDI] = r.Start+8, patch
			return r
		}
		ref := fpDiffAll(t, "packed smc store", code, 0, 1, setup)
		if ref.errMsg != "" || ref.gpr[x86.RCX] != 0 {
			t.Fatalf("loop did not complete: rcx=%d err=%q", ref.gpr[x86.RCX], ref.errMsg)
		}
	})
}

// packedLine is the shape of GCC's vectorized line kernel: two misaligned
// loads, a packed add and multiply, an aligned store, n pairs.
func packedLine(n int64) func(b *asm.Builder) {
	return packedLoop(n, func(b *asm.Builder) {
		b.I(x86.MOVUPD, x86.X(x86.XMM0), x86.MemBIS(16, x86.RSI, x86.RAX, 8, -8))
		b.I(x86.MOVUPD, x86.X(x86.XMM2), x86.MemBIS(16, x86.RSI, x86.RAX, 8, 8))
		b.I(x86.ADDPD, x86.X(x86.XMM0), x86.X(x86.XMM2))
		b.I(x86.MULPD, x86.X(x86.XMM0), x86.MemBD(16, x86.RDX, 0))
		b.I(x86.MOVAPD, x86.MemBIS(16, x86.RDI, x86.RAX, 8, 0), x86.X(x86.XMM0))
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(2, 8))
	})
}

// packedLineData is the line kernel's input (rsi), its coefficient pair
// (rdx) and its output (rdi), for n pairs.
func packedLineData(n int) func(m *emu.Machine, mem *emu.Memory) *emu.Region {
	return func(m *emu.Machine, mem *emu.Memory) *emu.Region {
		in := mem.Alloc(8*(2*n+4), 64, "in")
		fpData(in, 2*n+4)
		coef := mem.Alloc(16, 16, "coef")
		binary.LittleEndian.PutUint64(coef.Data, math.Float64bits(0.25))
		binary.LittleEndian.PutUint64(coef.Data[8:], math.Float64bits(0.25))
		out := mem.Alloc(8*(2*n+2), 64, "out")
		m.GPR[x86.RAX] = 1
		m.GPR[x86.RSI], m.GPR[x86.RDX], m.GPR[x86.RDI] = in.Start, coef.Start, out.Start-8
		return out
	}
}

// TestTracePackedBudgetSweep cuts the packed line loop off at every
// instruction budget, which lands a cutoff before and after each packed
// access and arithmetic of the compiled trace.
func TestTracePackedBudgetSweep(t *testing.T) {
	code := assembleAt(t, 0x5000, packedLine(40))
	data := packedLineData(40)
	full := fpRun(t, code, fpEngines[0].set, 0, 1, data)
	if full.errMsg != "" {
		t.Fatalf("reference run failed: %s", full.errMsg)
	}
	for budget := uint64(1); budget <= full.instCount+1; budget++ {
		fpDiffAll(t, fmt.Sprintf("packed budget %d", budget), code, budget, 1, data)
	}
}

// TestTracePackedReplayAtBinades enters the packed line loop, whose
// misaligned loads log a penalty on every iteration, with Cycles preset where
// the replay of a run changes its course: below 2^20, with the boundary
// crossed mid-run, and just under it; below 2^52, where the 0.25-cycle
// penalty is half an ulp and ties; at 2^52 and just under 2^53, where the
// 0.5-cycle costs tie; and at 2^53, where the 1-cycle costs tie and the
// penalty rounds to nothing.
func TestTracePackedReplayAtBinades(t *testing.T) {
	const n = 3000
	code := assembleAt(t, 0x5000, packedLine(n))
	presets := []float64{
		math.Ldexp(1, 20) - 1000.3,
		math.Nextafter(math.Ldexp(1, 20), 0),
		math.Ldexp(1, 52) - 5000,
		math.Nextafter(math.Ldexp(1, 52), 0),
		math.Ldexp(1, 52),
		math.Nextafter(math.Ldexp(1, 53), 0),
		math.Ldexp(1, 53),
	}
	for _, c0 := range presets {
		before := emu.ReadTraceStats()
		data := packedLineData(n)
		setup := func(m *emu.Machine, mem *emu.Memory) *emu.Region {
			m.Cycles = c0
			return data(m, mem)
		}
		ref := fpDiffAll(t, fmt.Sprintf("packed line from %v cycles", c0), code, 0, 2, setup)
		if st := emu.ReadTraceStats(); st.Iters-before.Iters < n {
			t.Fatalf("from %v: %d trace iterations, want at least %d", c0, st.Iters-before.Iters, n)
		}
		if c0 < math.Ldexp(1, 53) && ref.cycles <= c0 {
			t.Fatalf("from %v: cycles did not grow (%v)", c0, ref.cycles)
		}
	}
}
