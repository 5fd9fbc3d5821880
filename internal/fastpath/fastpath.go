// Package fastpath is the TPDE-style single-pass baseline backend: it turns
// original machine code into installable code with the minimum work that
// still yields bit-identical architectural behavior.
//
// Two routes, tried in order:
//
//  1. Direct-from-x86 shortcut (ModeCopy): if the function is straight-line
//     code — decodes cleanly from the entry to a RET with no other control
//     flow — the bytes are copied into a fresh code region. Encodings that
//     are position-independent copy verbatim; RIP-relative operands are
//     re-encoded with the displacement retargeted at the original data. No
//     lift, no IR, no regalloc; compile cost is one decode scan plus a
//     memcpy (plus per-instruction re-encode when fixups are needed).
//
//  2. Single-pass lower (ModeLower): otherwise the code is lifted to IR once
//     and handed to the JIT's baseline mode (jit.Compiler.Baseline), which
//     fuses instruction selection and a fixed all-in-slots allocation into
//     one walk — no optimizer rounds, no liveness fixpoint, no linear scan.
//
// Its users are the benchmark's compile_baseline route, which times it
// against the rewriting routes, and the evaluation corpus and crosstest,
// which run it as a differential path. It is the only user of
// jit.Compiler.Baseline.
package fastpath

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/emu"
	"repro/internal/jit"
	"repro/internal/lift"
	"repro/internal/trace"
	"repro/internal/x86"
)

// Mode identifies which route produced the code.
type Mode int

const (
	// ModeCopy is the direct-from-x86 shortcut: straight-line original
	// bytes copied verbatim into a new region.
	ModeCopy Mode = iota
	// ModeLower is the fused single-pass compile: lift once, then the
	// baseline JIT backend.
	ModeLower
)

func (m Mode) String() string {
	switch m {
	case ModeCopy:
		return "copy"
	case ModeLower:
		return "lower"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options tune a fastpath compile; the zero value is ready to use.
type Options struct {
	// NamePrefix distinguishes code regions of multiple generations of one
	// function, as in jit.Compiler.NamePrefix (e.g. "t1.").
	NamePrefix string
	// Trace, when non-nil, receives one "fastpath" span per Compile with
	// mode and size attributes. A nil Trace records nothing.
	Trace *trace.Trace
	// MaxScan bounds the shortcut's decode scan in bytes (default 4096).
	// Functions longer than this take the lowering route.
	MaxScan int
}

// Result describes a successful fastpath compile.
type Result struct {
	// Entry is the address of the installed code.
	Entry uint64
	// CodeSize is the emitted (or copied) code size in bytes.
	CodeSize int
	// Mode is the route that produced the code.
	Mode Mode
	// Insts is the number of machine instructions scanned on the copy
	// route (0 for ModeLower).
	Insts int
}

// Stats are process-wide fastpath counters, in the style of
// emu.ReadTraceStats.
type Stats struct {
	// Copies and Lowers count successful compiles per route.
	Copies, Lowers uint64
	// CopyFixups counts ModeCopy compiles that needed RIP-relative
	// displacement re-encoding (a subset of Copies).
	CopyFixups uint64
	// ShortcutRejects counts entries that failed the straight-line scan
	// (branch, decode error, over MaxScan, or an out-of-range RIP-relative
	// fixup) and fell through to lowering.
	ShortcutRejects uint64
}

var counters struct {
	copies, lowers, fixups, rejects atomic.Uint64
}

// ReadStats returns a snapshot of the process-wide counters.
func ReadStats() Stats {
	return Stats{
		Copies:          counters.copies.Load(),
		Lowers:          counters.lowers.Load(),
		CopyFixups:      counters.fixups.Load(),
		ShortcutRejects: counters.rejects.Load(),
	}
}

const defaultMaxScan = 4096

// Compile produces executable code for the function at entry using the
// cheapest applicable route. The output is behaviorally bit-identical to
// the original code (architectural state, flags, memory effects); only
// compile latency and code placement differ from the optimizing tiers.
func Compile(mem *emu.Memory, entry uint64, name string, sig abi.Signature, opts Options) (*Result, error) {
	sp := opts.Trace.Start("fastpath")
	res, err := compile(mem, entry, name, sig, opts)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.Int("mode", int64(res.Mode)).Int("code_bytes", int64(res.CodeSize)).End()
	return res, nil
}

func compile(mem *emu.Memory, entry uint64, name string, sig abi.Signature, opts Options) (*Result, error) {
	if res, ok := tryCopy(mem, entry, name, opts); ok {
		counters.copies.Add(1)
		return res, nil
	}
	counters.rejects.Add(1)

	lo := lift.DefaultOptions()
	lo.Trace = opts.Trace
	l := lift.New(mem, lo)
	f, err := l.LiftFunc(entry, name, sig)
	if err != nil {
		return nil, fmt.Errorf("fastpath: lift %s: %w", name, err)
	}
	comp := jit.NewCompiler(mem)
	comp.Baseline = true
	comp.NamePrefix = opts.NamePrefix
	comp.Trace = opts.Trace
	addr, err := comp.CompileModule(l.Module, f.Nam)
	if err != nil {
		return nil, fmt.Errorf("fastpath: jit %s: %w", name, err)
	}
	counters.lowers.Add(1)
	return &Result{Entry: addr, CodeSize: comp.Sizes[addr], Mode: ModeLower}, nil
}

// tryCopy attempts the direct-from-x86 shortcut: scan for straight-line
// code, then install it at a fresh address — verbatim when every encoding is
// position-independent, or with RIP-relative displacements re-encoded
// against the new location. Returns (nil, false) when the function is not
// copy-eligible (branch, decode error, over MaxScan, or a displacement that
// cannot be expressed from the new address).
func tryCopy(mem *emu.Memory, entry uint64, name string, opts Options) (*Result, bool) {
	insts, n, ok := scanStraightLine(mem, entry, opts.MaxScan)
	if !ok {
		return nil, false
	}
	ripRel := false
	for i := range insts {
		if instRIPRel(&insts[i]) {
			ripRel = true
			break
		}
	}
	if !ripRel {
		// Pure byte copy: the encodings are position-independent.
		code, err := mem.Bytes(entry, n)
		if err != nil {
			return nil, false
		}
		r := mem.Alloc(n, 16, "fastpath."+opts.NamePrefix+name)
		copy(r.Data, code)
		return &Result{Entry: r.Start, CodeSize: n, Mode: ModeCopy, Insts: len(insts)}, true
	}
	// RIP-relative fixup: the output is rebuilt instruction by instruction —
	// position-independent encodings are copied verbatim, RIP-relative ones
	// are re-encoded with the displacement retargeted at the original data.
	// Sizing pass at base 0 (lengths are displacement-independent: RIP
	// operands always encode disp32), then the real pass at the allocated
	// address with range checks.
	size, ok := emitCopyFixed(mem, entry, insts, nil)
	if !ok {
		return nil, false
	}
	r := mem.Alloc(size, 16, "fastpath."+opts.NamePrefix+name)
	if got, ok := emitCopyFixed(mem, entry, insts, r); !ok || got != size {
		return nil, false
	}
	counters.fixups.Add(1)
	return &Result{Entry: r.Start, CodeSize: size, Mode: ModeCopy, Insts: len(insts)}, true
}

// emitCopyFixed writes the relocated copy of insts into out (or, with out ==
// nil, sizes it at a placeholder base). Returns the total byte size and
// whether every RIP-relative displacement stayed in range.
func emitCopyFixed(mem *emu.Memory, entry uint64, insts []x86.Inst, out *emu.Region) (int, bool) {
	base := uint64(0)
	if out != nil {
		base = out.Start
	}
	e := x86.NewEncoder(base)
	for i := range insts {
		in := insts[i]
		if !instRIPRel(&in) {
			raw, err := mem.Bytes(in.Addr, in.Len)
			if err != nil {
				return 0, false
			}
			e.Buf = append(e.Buf, raw...)
			e.PC += uint64(in.Len)
			continue
		}
		// The decoded displacement is relative to the end of the original
		// instruction; the encoder's contract is the same relative to the
		// new end, so retarget each operand at its original absolute data.
		before := len(e.Buf)
		for _, op := range []*x86.Operand{&in.Dst, &in.Src, &in.Src2} {
			if op.Kind != x86.KMem || !op.Mem.RIPRel {
				continue
			}
			target := in.Addr + uint64(in.Len) + uint64(int64(op.Mem.Disp))
			// Conservative length bound: re-encoding cannot shrink the
			// fields that precede the displacement, so the new end is at
			// most at pc+15. Verify the exact value after encoding.
			newDisp := int64(target) - int64(e.PC) - int64(in.Len)
			if newDisp < -(1<<31) || newDisp >= 1<<31 {
				return 0, false
			}
			op.Mem.Disp = int32(newDisp)
		}
		if err := e.Encode(in); err != nil {
			return 0, false
		}
		if newLen := len(e.Buf) - before; newLen != in.Len {
			// The encoder chose a different-length form than the original
			// bytes: the pre-computed displacement (relative to the new
			// end) would be off. Reject; the lowering route handles it.
			return 0, false
		}
	}
	if out != nil {
		if len(e.Buf) != len(out.Data) {
			return len(e.Buf), false
		}
		copy(out.Data, e.Buf)
	}
	return len(e.Buf), true
}

func instRIPRel(in *x86.Inst) bool {
	for _, op := range []x86.Operand{in.Dst, in.Src, in.Src2} {
		if op.Kind == x86.KMem && op.Mem.RIPRel {
			return true
		}
	}
	return false
}

// scanStraightLine decodes forward from entry and returns the decoded
// instructions plus total byte length when the function is eligible for the
// copy shortcut: every instruction decodes and none is a branch except a
// final RET. RIP-relative operands are allowed — the copy route re-encodes
// them against the new address (see tryCopy).
func scanStraightLine(mem *emu.Memory, entry uint64, maxScan int) ([]x86.Inst, int, bool) {
	if maxScan <= 0 {
		maxScan = defaultMaxScan
	}
	off := 0
	var insts []x86.Inst
	for off < maxScan {
		addr := entry + uint64(off)
		// An instruction is at most 15 bytes; near the end of a mapped
		// region a full window may fault, so shrink until a read succeeds.
		var window []byte
		for n := 16; n >= 1; n-- {
			if b, err := mem.Bytes(addr, n); err == nil {
				window = b
				break
			}
		}
		if window == nil {
			return nil, 0, false
		}
		in, err := x86.Decode(window, addr)
		if err != nil {
			return nil, 0, false
		}
		off += in.Len
		insts = append(insts, in)
		if in.Op == x86.RET {
			return insts, off, true
		}
		if in.IsBranch() {
			return nil, 0, false
		}
	}
	return nil, 0, false
}
