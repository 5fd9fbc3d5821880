package emu

import "repro/internal/x86"

// CostModel assigns a cycle cost to each retired instruction plus penalties
// for problematic memory accesses. The model is an additive
// reciprocal-throughput approximation of an Intel Haswell core: it assumes
// the out-of-order engine hides latencies in throughput-bound inner loops
// (the regime all of the paper's kernels run in) and therefore charges each
// instruction its issue cost rather than its latency. Long-latency,
// unpipelined operations (division, square root) are charged their full
// cost. Unaligned vector accesses that split a cache line pay the measured
// Haswell split penalty — the effect behind the paper's observation that the
// forced-vectorized LLVM loop is ~23% slower than GCC's aligned loop.
type CostModel struct {
	// ClockHz converts cycles to seconds (the paper's machine: 3.5 GHz).
	ClockHz float64
	// LineSize is the cache line size for split-access detection.
	LineSize uint64
	// SplitPenalty is the extra cost of a load/store crossing a line.
	SplitPenalty float64
	// UnalignedVecPenalty is the extra cost of any 16-byte access that is
	// not 16-byte aligned (even within one line).
	UnalignedVecPenalty float64

	// opCost is the cost of each opcode; one it leaves at 0 costs def.
	opCost [x86.OpCount]float64
	def    float64
}

// HaswellModel returns the default cost model used by all experiments.
func HaswellModel() *CostModel {
	c := &CostModel{
		ClockHz:             3.5e9,
		LineSize:            64,
		SplitPenalty:        2.0,
		UnalignedVecPenalty: 0.25,
		def:                 1.0,
	}
	c.opCost = [x86.OpCount]float64{
		// Data movement: handled by rename/AGU, cheap.
		x86.MOV: 0.33, x86.MOVZX: 0.33, x86.MOVSX: 0.33, x86.MOVSXD: 0.33,
		x86.LEA: 0.5, x86.NOP: 0.1, x86.ENDBR64: 0.1,
		x86.STC: 0.25, x86.CLC: 0.25,
		// Integer ALU: 4 ports on Haswell.
		x86.ADD: 0.33, x86.SUB: 0.33, x86.ADC: 0.5, x86.SBB: 0.5,
		x86.AND: 0.33, x86.OR: 0.33, x86.XOR: 0.33, x86.CMP: 0.33,
		x86.TEST: 0.33, x86.NOT: 0.33, x86.NEG: 0.33,
		x86.INC: 0.33, x86.DEC: 0.33,
		x86.SHL: 0.5, x86.SHR: 0.5, x86.SAR: 0.5, x86.ROL: 0.5, x86.ROR: 0.5,
		x86.IMUL: 1.0, x86.IMUL3: 1.0, x86.MUL: 1.0,
		x86.IDIV: 25, x86.DIV: 22,
		x86.CQO: 0.33, x86.CDQ: 0.33, x86.CDQE: 0.33,
		x86.XCHG: 1.0, x86.POPCNT: 1.0,
		// String ops: movsb/stosb are load+store micro-op pairs; the rep
		// forms retire as one instruction here, so they carry the fast-string
		// startup cost (the per-byte cost is hidden by the block regime).
		x86.MOVSB: 1.0, x86.STOSB: 1.0, x86.REPMOVSB: 4.0, x86.REPSTOSB: 4.0,
		// Control flow: predicted branches are cheap; calls/returns carry
		// stack-engine and frontend cost.
		x86.JMP: 0.5, x86.JCC: 0.5, x86.CMOVCC: 0.5, x86.SETCC: 0.5,
		x86.CALL: 2.0, x86.CALLIndirect: 2.5, x86.RET: 1.0,
		x86.JMPIndirect: 1.0,
		x86.PUSH:        1.0, x86.POP: 1.0,
		// SSE moves.
		x86.MOVSD_X: 0.5, x86.MOVSS_X: 0.5, x86.MOVAPS: 0.5, x86.MOVUPS: 0.5,
		x86.MOVAPD: 0.5, x86.MOVUPD: 0.5, x86.MOVDQA: 0.5, x86.MOVDQU: 0.5,
		x86.MOVQ: 0.5, x86.MOVD: 1.0, x86.MOVQGP: 1.0,
		x86.MOVHPD: 1.0, x86.MOVLPD: 1.0,
		// Scalar FP: one add port, two mul ports (Haswell FMA ports).
		x86.ADDSD: 1.0, x86.SUBSD: 1.0, x86.MULSD: 0.5,
		x86.ADDSS: 1.0, x86.SUBSS: 1.0, x86.MULSS: 0.5,
		x86.DIVSD: 14, x86.DIVSS: 11, x86.SQRTSD: 14,
		x86.MINSD: 1.0, x86.MAXSD: 1.0,
		// Packed FP: same throughput as scalar — this is the vector win.
		x86.ADDPD: 1.0, x86.SUBPD: 1.0, x86.MULPD: 0.5, x86.DIVPD: 16,
		x86.ADDPS: 1.0, x86.SUBPS: 1.0, x86.MULPS: 0.5, x86.DIVPS: 13,
		// Bitwise and shuffles.
		x86.XORPS: 0.33, x86.XORPD: 0.33, x86.ANDPS: 0.33, x86.ANDPD: 0.33,
		x86.ORPS: 0.33, x86.ORPD: 0.33,
		x86.PXOR: 0.33, x86.POR: 0.33, x86.PAND: 0.33,
		x86.PADDD: 0.5, x86.PADDQ: 0.5, x86.PSUBD: 0.5, x86.PSUBQ: 0.5,
		x86.UNPCKLPD: 1.0, x86.UNPCKHPD: 1.0, x86.UNPCKLPS: 1.0,
		x86.PUNPCKLQDQ: 1.0,
		x86.SHUFPD:     1.0, x86.SHUFPS: 1.0, x86.PSHUFD: 1.0,
		// Conversions and compares.
		x86.CVTSI2SD: 2.0, x86.CVTSI2SS: 2.0, x86.CVTTSD2SI: 2.0,
		x86.CVTSD2SS: 2.0, x86.CVTSS2SD: 1.0,
		x86.COMISD: 1.0, x86.UCOMISD: 1.0, x86.COMISS: 1.0, x86.UCOMISS: 1.0,
		x86.MOVMSKPD: 1.0,
	}
	return c
}

// InstCost returns the cycle cost of one retired instruction, excluding
// memory penalties (charged separately per access).
func (c *CostModel) InstCost(in *x86.Inst) float64 {
	v := c.opCost[in.Op]
	if v == 0 {
		return c.def
	}
	// Memory-operand forms carry an extra AGU/load micro-op.
	if in.Src.Kind == x86.KMem || in.Dst.Kind == x86.KMem {
		return v + 0.5
	}
	return v
}

// MemPenalty returns the extra cost of a memory access at addr of the given
// size: cache-line splits and unaligned vector accesses. Every emulated
// memory access lands here, so the line offset of the power-of-two case
// (every real cache) is a mask, not a hardware divide. The body is kept
// within the inliner's budget for Machine.accountMem, which the bound
// accessors inline in turn (`go build -gcflags=-m ./internal/emu` says
// "can inline (*Machine).accountMem"); past it, every access pays two calls.
func (c *CostModel) MemPenalty(addr uint64, size int, write bool) float64 {
	var p float64
	if size == 16 && addr%16 != 0 {
		p += c.UnalignedVecPenalty
	}
	line := c.LineSize
	off := addr & (line - 1)
	if line&(line-1) != 0 {
		off = addr % line
	}
	if off+uint64(size) > line {
		p += c.SplitPenalty
		if write {
			p += c.SplitPenalty // split stores are worse on Haswell
		}
	}
	return p
}

// Seconds converts a cycle count to seconds at the model's clock.
func (c *CostModel) Seconds(cycles float64) float64 { return cycles / c.ClockHz }
