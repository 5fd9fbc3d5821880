package jit

import (
	"fmt"
	"runtime"
	"unsafe"

	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/lift"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// This file compiles trace-VM bytecode (tracevm.go) to host x86-64, so hot
// superblock traces run as real machine code instead of a Go dispatch loop.
// Compiling from the vmProg — not from the IR — is deliberate: the native
// code inherits the VM's slot assignment, interned constants, exit tables
// and memory sites verbatim, and every exit funnels back through the same
// vmProg.takeExit, so flag materialization, register write-back and the
// (iters, steps, rip) contract are bit-identical to the VM by construction.
//
// Execution model. The state buffer (one uint64 per slot, extended with a
// few control words and a 4-word descriptor per memory site) is pinned in
// R15; a tiny assembly trampoline (traceEnter) calls into the generated
// code, which computes through RAX/RCX/RDX scratch (X0/X1 for scalar double
// arithmetic) on [R15+8*slot] and returns via RET with an exit token stored
// in the buffer. Baseline
// compiles (first heat) use this pure slot model — a fused single pass over
// the bytecode, TPDE-style. O3 recompiles additionally pin the hottest
// slots in callee-saved-by-the-trampoline registers (RBX, RBP, RSI, RDI,
// R8–R14); exit and miss stubs flush the pinned set back to the buffer so
// takeExit always reads authoritative memory, and per-site resume entries
// reload it.
//
// Memory accesses check their cached region bounds (and the line-split
// penalty and, for stores, the region watch flag) inline against the site
// descriptor; any failure jumps to a per-site miss stub that records the
// faulting address and returns to the Go wrapper, which re-runs the VM's
// exact region/watch/penalty logic — refilling the site and resuming at the
// site's recheck label, or deoptimizing through takeExit. The backedge SMC
// check dereferences the Memory code-generation word directly.

// nativeChunkInsts bounds the instructions retired per traceEnter call so
// the goroutine re-enters Go regularly (async preemption cannot interrupt
// non-Go code). A chunk-capped run is indistinguishable from an iteration
// cap exit and the dispatcher simply re-enters the trace.
const nativeChunkInsts = 4 << 20

// natMissBase offsets the per-site miss tokens above any real exit index in
// the exit-token word.
const natMissBase = 1 << 20

// natPinnable is the register pool for O3 slot pinning: everything the
// trampoline preserves except R15 (state base) and the RAX/RCX/RDX scratch.
var natPinnable = []x86.Reg{
	x86.RBX, x86.RSI, x86.RDI, x86.R8, x86.R9, x86.R10,
	x86.R11, x86.R12, x86.R13, x86.R14, x86.RBP,
}

type natSite struct {
	size  uint64
	write bool
	exit  int32 // vm exit index to deopt through on fault/watch/penalty
}

// nativeProg is a trace compiled to host code. Like the vmProg it wraps, it
// belongs to one machine's trace entry and runs serially.
type nativeProg struct {
	vm       *vmProg
	codeBuf  []byte // RWX mapping; munmapped by finalizer
	entry    uintptr
	resume   []uintptr // per site: reload pinned regs, re-run the site check
	sites    []natSite
	template []uint64
	scratch  []uint64
	chunk    uint64 // per-entry iteration cap (preemption bound)

	// Word indices into the state buffer.
	exitTokOff  int32
	missAddrOff int32
	startGenOff int32
	genPtrOff   int32
	siteBase    int32 // 4 words per site: start, limit, delta, watchPtr
	capExit     int32 // exit index of the iteration-cap exit (not a deopt)
}

// run implements emu.TraceRunFunc natively. See vmProg.run for the
// interpreted reference semantics.
func (p *nativeProg) run(m *emu.Machine, iterCap uint64) (iters, steps, rip uint64) {
	slots := p.scratch
	if iterCap > p.chunk {
		iterCap = p.chunk
	}
	p.vm.enter(slots, p.template, m, iterCap)
	slots[p.startGenOff] = p.vm.mem.CodeGen()

	entry := p.entry
	for {
		traceEnter(entry, &slots[0])
		tok := slots[p.exitTokOff]
		if tok < natMissBase {
			if int32(tok) != p.capExit {
				emu.CountTraceNativeDeopt()
			}
			i, s, r := p.vm.takeExit(m, int32(tok), slots)
			runtime.KeepAlive(p)
			return i, s, r
		}
		// Site miss: the inline check failed. Re-run the VM's exact
		// region/watch/penalty decision and either refill the site
		// descriptor and resume, or deoptimize pre-instruction.
		k := tok - natMissBase
		ms := &p.sites[k]
		addr := slots[p.missAddrOff]
		r := p.vm.mem.FindRegion(addr, int(ms.size))
		if r == nil || (ms.write && r.Watched()) || p.vm.penalized(addr, ms.size, ms.write) {
			emu.CountTraceNativeDeopt()
			i, s, rp := p.vm.takeExit(m, ms.exit, slots)
			runtime.KeepAlive(p)
			return i, s, rp
		}
		base := p.siteBase + 4*int32(k)
		slots[base+0] = r.Start
		slots[base+1] = r.End() - ms.size
		slots[base+2] = uint64(uintptr(unsafe.Pointer(&r.Data[0]))) - r.Start
		slots[base+3] = uint64(uintptr(unsafe.Pointer(r.WatchWord())))
		entry = p.resume[k]
	}
}

// natBuilder emits a vmProg as host code.
type natBuilder struct {
	p    *nativeProg
	vm   *vmProg
	b    *asm.Builder
	pin  map[int32]x86.Reg
	pins []int32 // pinned slots in flush/reload order

	opLabel     []asm.Label // per vm pc
	exitLabel   []asm.Label // per vm exit (cold stub)
	missLabel   []asm.Label // per site (cold stub)
	recheckLbl  []asm.Label // per site (hot re-entry point)
	resumeLabel []asm.Label // per site (reload pinned, jmp recheck)

	constVal map[int32]uint64 // slots never written at run time
	bufBase  int32            // scratch words for cyclic phi moves
}

// buildNative compiles vm to host code. An error means the trace stays on
// the bytecode VM; nothing observable has happened.
func buildNative(vm *vmProg, prog *lift.TraceProgram, head uint64, o3 bool) (*nativeProg, error) {
	if !nativeTraceOK {
		return nil, fmt.Errorf("jit: native traces unsupported on this platform")
	}
	if vm.penCall {
		return nil, fmt.Errorf("jit: native traces require an inline penalty model")
	}
	if vm.lineMask > 0x7FFFFFFF {
		return nil, fmt.Errorf("jit: cache line too large for inline checks")
	}
	p := &nativeProg{vm: vm}
	nb := &natBuilder{p: p, vm: vm, b: asm.NewBuilder(), pin: map[int32]x86.Reg{}}

	// Extend the VM template with control words, the cyclic-move buffer and
	// the site descriptors.
	tmpl := append([]uint64(nil), vm.template...)
	word := func(v uint64) int32 {
		tmpl = append(tmpl, v)
		return int32(len(tmpl) - 1)
	}
	p.exitTokOff = word(0)
	p.missAddrOff = word(0)
	p.startGenOff = word(0)
	p.genPtrOff = word(uint64(uintptr(unsafe.Pointer(vm.mem.CodeGenWord()))))
	nb.bufBase = int32(len(tmpl))
	for range vm.buf {
		word(0)
	}
	p.siteBase = int32(len(tmpl))
	for range vm.sites {
		word(1) // start: [1, 0] is an empty range, every access misses
		word(0) // limit
		word(0) // delta
		word(0) // watch pointer
	}
	p.template = tmpl
	p.scratch = make([]uint64, len(tmpl))

	// Per-site metadata and the cap-exit index (for deopt accounting: the
	// iteration-cap exit is the one normal way out of the loop).
	p.sites = make([]natSite, len(vm.sites))
	for _, op := range vm.code {
		switch op.code {
		case vLoad:
			p.sites[op.b] = natSite{size: uint64(op.aux), exit: op.t0}
		case vStore:
			p.sites[op.dst] = natSite{size: uint64(op.aux), write: true, exit: op.t0}
		}
	}
	p.capExit = -1
	genSt := prog.Exits[prog.GenExit]
	for i := range vm.exits {
		st := vm.exits[i].st
		if st.Steps == 0 && st.RIP == head && st != genSt {
			p.capExit = int32(i)
			break
		}
	}
	if t := prog.NumSteps; t > 0 {
		p.chunk = uint64(nativeChunkInsts / t)
	}
	if p.chunk == 0 {
		p.chunk = 1
	}

	if o3 {
		nb.pickPins()
	}
	nb.findConsts()
	if err := nb.emit(); err != nil {
		return nil, err
	}
	code, labels, err := nb.b.Assemble(0)
	if err != nil {
		return nil, err
	}
	buf, err := allocExec(code)
	if err != nil {
		return nil, err
	}
	p.codeBuf = buf
	base := uintptr(unsafe.Pointer(&buf[0]))
	p.entry = base
	p.resume = make([]uintptr, len(vm.sites))
	for k := range vm.sites {
		p.resume[k] = base + uintptr(labels[nb.resumeLabel[k]])
	}
	runtime.SetFinalizer(p, func(fp *nativeProg) { freeExec(fp.codeBuf) })
	return p, nil
}

// slotUses tallies how often each slot is read or written, for pinning.
func (nb *natBuilder) slotUses() map[int32]int {
	use := map[int32]int{}
	add := func(s int32) { use[s]++ }
	for i := range nb.vm.code {
		op := &nb.vm.code[i]
		switch op.code {
		case vAdd, vSub, vMul, vAnd, vOr, vXor, vShl, vLShr, vAShr, vICmp, vBrICmp,
			vFAdd, vFSub, vFMul, vFDiv:
			add(op.dst)
			add(op.a)
			add(op.b)
		case vSelect:
			add(op.dst)
			add(op.a)
			add(op.b)
			add(op.t0)
		case vCtpop, vCopy, vTrunc, vSExt:
			add(op.dst)
			add(op.a)
		case vCondBr:
			add(op.a)
		case vLoad:
			add(op.dst)
			add(op.a)
		case vStore:
			add(op.a)
			add(op.b)
		}
	}
	for i := range nb.vm.moves {
		mv := &nb.vm.moves[i]
		for _, s := range mv.ord {
			add(s)
		}
		for _, s := range mv.cdst {
			add(s)
		}
		for _, s := range mv.csrc {
			add(s)
		}
	}
	return use
}

// pickPins assigns the hottest slots to registers (O3 mode).
func (nb *natBuilder) pickPins() {
	use := nb.slotUses()
	order := make([]int32, 0, len(use))
	for s := range use {
		order = append(order, s)
	}
	// Deterministic: by use count desc, slot index asc.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, bs := order[j-1], order[j]
			if use[bs] > use[a] || (use[bs] == use[a] && bs < a) {
				order[j-1], order[j] = bs, a
			} else {
				break
			}
		}
	}
	for i, s := range order {
		if i >= len(natPinnable) {
			break
		}
		nb.pin[s] = natPinnable[i]
		nb.pins = append(nb.pins, s)
	}
}

// findConsts identifies slots whose value never changes at run time: interned
// constants past the parameter area that no op or move writes. Their template
// value can fold into immediates.
func (nb *natBuilder) findConsts() {
	written := map[int32]bool{}
	for i := range nb.vm.code {
		op := &nb.vm.code[i]
		switch op.code {
		case vAdd, vSub, vMul, vAnd, vOr, vXor, vShl, vLShr, vAShr,
			vFAdd, vFSub, vFMul, vFDiv,
			vICmp, vBrICmp, vSelect, vCtpop, vCopy, vTrunc, vSExt, vLoad:
			written[op.dst] = true
		}
	}
	for i := range nb.vm.moves {
		mv := &nb.vm.moves[i]
		for j := 0; j < len(mv.ord); j += 2 {
			written[mv.ord[j]] = true
		}
		for _, d := range mv.cdst {
			written[d] = true
		}
	}
	nb.constVal = map[int32]uint64{}
	for s := int32(lift.TraceParamXMM + 2*len(nb.vm.xmmIn)); s < int32(len(nb.vm.template)); s++ {
		if !written[s] {
			nb.constVal[s] = nb.vm.template[s]
		}
	}
}

func fitsImm32(v uint64) bool {
	return int64(v) >= -(1<<31) && int64(v) <= (1<<31)-1
}

// imm32Of returns the value of slot s as a sign-extendable 32-bit immediate.
func (nb *natBuilder) imm32Of(s int32) (int64, bool) {
	v, ok := nb.constVal[s]
	if !ok || !fitsImm32(v) {
		return 0, false
	}
	return int64(v), true
}

func (nb *natBuilder) slotMem(s int32) x86.Operand { return x86.MemBD(8, x86.R15, 8*s) }

// load brings slot s into scratch register r.
func (nb *natBuilder) load(r x86.Reg, s int32) {
	if pr, ok := nb.pin[s]; ok {
		nb.b.I(x86.MOV, x86.R64(r), x86.R64(pr))
		return
	}
	nb.b.I(x86.MOV, x86.R64(r), nb.slotMem(s))
}

// store writes scratch register r to slot s.
func (nb *natBuilder) store(s int32, r x86.Reg) {
	if pr, ok := nb.pin[s]; ok {
		nb.b.I(x86.MOV, x86.R64(pr), x86.R64(r))
		return
	}
	nb.b.I(x86.MOV, nb.slotMem(s), x86.R64(r))
}

// srcOp is slot s as a right-hand operand: its pinned register or its
// buffer word.
func (nb *natBuilder) srcOp(s int32) x86.Operand {
	if pr, ok := nb.pin[s]; ok {
		return x86.R64(pr)
	}
	return nb.slotMem(s)
}

// flushPins / reloadPins synchronize pinned registers with the buffer at
// stub boundaries. Cold code: runs once per exit or site miss.
func (nb *natBuilder) flushPins() {
	for _, s := range nb.pins {
		nb.b.I(x86.MOV, nb.slotMem(s), x86.R64(nb.pin[s]))
	}
}

func (nb *natBuilder) reloadPins() {
	for _, s := range nb.pins {
		nb.b.I(x86.MOV, x86.R64(nb.pin[s]), nb.slotMem(s))
	}
}

// jmp emits a jump to vm pc target unless it is the fallthrough.
func (nb *natBuilder) jmp(target, next int32) {
	if target != next {
		nb.b.Jmp(nb.opLabel[target])
	}
}

var natALU = map[vmCode]x86.Op{
	vAdd: x86.ADD, vSub: x86.SUB, vAnd: x86.AND, vOr: x86.OR, vXor: x86.XOR,
}

var natShift = map[vmCode]x86.Op{vShl: x86.SHL, vLShr: x86.SHR, vAShr: x86.SAR}

var natFP = map[vmCode]x86.Op{vFAdd: x86.ADDSD, vFSub: x86.SUBSD, vFMul: x86.MULSD, vFDiv: x86.DIVSD}

// loadX brings the bit pattern of slot s into XMM scratch register x: from
// its buffer word, or from its pinned GPR.
func (nb *natBuilder) loadX(x x86.Reg, s int32) {
	if pr, ok := nb.pin[s]; ok {
		nb.b.I(x86.MOVQGP, x86.X(x), x86.R64(pr))
		return
	}
	nb.b.I(x86.MOVSD_X, x86.X(x), nb.slotMem(s))
}

// emit lowers the whole bytecode program plus its stubs.
func (nb *natBuilder) emit() error {
	vm, b := nb.vm, nb.b
	nb.opLabel = make([]asm.Label, len(vm.code))
	for i := range nb.opLabel {
		nb.opLabel[i] = b.NewLabel()
	}
	nb.exitLabel = make([]asm.Label, len(vm.exits))
	for i := range nb.exitLabel {
		nb.exitLabel[i] = b.NewLabel()
	}
	nb.missLabel = make([]asm.Label, len(vm.sites))
	nb.recheckLbl = make([]asm.Label, len(vm.sites))
	nb.resumeLabel = make([]asm.Label, len(vm.sites))
	for i := range vm.sites {
		nb.missLabel[i] = b.NewLabel()
		nb.recheckLbl[i] = b.NewLabel()
		nb.resumeLabel[i] = b.NewLabel()
	}

	// Entry: the trampoline has R15 = &slots[0]; populate pinned registers
	// and fall through into pc 0.
	nb.reloadPins()

	for pc := int32(0); pc < int32(len(vm.code)); pc++ {
		b.Bind(nb.opLabel[pc])
		if err := nb.emitOp(pc); err != nil {
			return err
		}
	}

	// Cold stubs out of line: exits, then per-site miss and resume.
	for i := range vm.exits {
		b.Bind(nb.exitLabel[i])
		nb.flushPins()
		b.I(x86.MOV, x86.R32(x86.RCX), x86.Imm(int64(i), 4))
		b.I(x86.MOV, nb.slotMem(nb.p.exitTokOff), x86.R64(x86.RCX))
		b.Ret()
	}
	for k := range vm.sites {
		b.Bind(nb.missLabel[k])
		// RAX still holds the guest address (misses branch before the
		// delta is applied).
		nb.flushPins()
		b.I(x86.MOV, nb.slotMem(nb.p.missAddrOff), x86.R64(x86.RAX))
		b.I(x86.MOV, x86.R32(x86.RCX), x86.Imm(int64(natMissBase+k), 4))
		b.I(x86.MOV, nb.slotMem(nb.p.exitTokOff), x86.R64(x86.RCX))
		b.Ret()

		b.Bind(nb.resumeLabel[k])
		nb.reloadPins()
		b.Jmp(nb.recheckLbl[k])
	}
	return nil
}

func (nb *natBuilder) emitOp(pc int32) error {
	vm, b := nb.vm, nb.b
	op := &vm.code[pc]
	switch op.code {
	case vAdd, vSub, vAnd, vOr, vXor:
		nb.load(x86.RAX, op.a)
		if imm, ok := nb.imm32Of(op.b); ok {
			b.I(natALU[op.code], x86.R64(x86.RAX), x86.Imm(imm, 8))
		} else {
			b.I(natALU[op.code], x86.R64(x86.RAX), nb.srcOp(op.b))
		}
		nb.store(op.dst, x86.RAX)

	case vMul:
		if imm, ok := nb.imm32Of(op.b); ok {
			b.I(x86.IMUL3, x86.R64(x86.RAX), nb.srcOp(op.a), x86.Imm(imm, 8))
		} else {
			nb.load(x86.RAX, op.a)
			b.I(x86.IMUL, x86.R64(x86.RAX), nb.srcOp(op.b))
		}
		nb.store(op.dst, x86.RAX)

	case vShl, vLShr, vAShr:
		if cnt, ok := nb.constVal[op.b]; ok {
			nb.load(x86.RAX, op.a)
			if c := cnt & 63; c != 0 {
				b.I(natShift[op.code], x86.R64(x86.RAX), x86.Imm(int64(c), 1))
			}
		} else {
			nb.load(x86.RCX, op.b)
			nb.load(x86.RAX, op.a)
			// Hardware masks the count to 6 bits, same as the VM's &63.
			b.I(natShift[op.code], x86.R64(x86.RAX), x86.R8L(x86.RCX))
		}
		nb.store(op.dst, x86.RAX)

	case vICmp:
		cond, err := nb.emitCmp(op)
		if err != nil {
			return err
		}
		b.Emit(x86.Inst{Op: x86.SETCC, Cond: cond, Dst: x86.R8L(x86.RAX)})
		b.I(x86.MOVZX, x86.R64(x86.RAX), x86.R8L(x86.RAX))
		nb.store(op.dst, x86.RAX)

	case vBrICmp:
		cond, err := nb.emitCmp(op)
		if err != nil {
			return err
		}
		b.Emit(x86.Inst{Op: x86.SETCC, Cond: cond, Dst: x86.R8L(x86.RAX)})
		b.I(x86.MOVZX, x86.R64(x86.RAX), x86.R8L(x86.RAX))
		nb.store(op.dst, x86.RAX) // MOVs preserve flags; Jcc still sees the CMP
		b.Jcc(cond, nb.opLabel[op.t0])
		nb.jmp(op.t1, pc+1)

	case vSelect:
		nb.load(x86.RAX, op.a)
		nb.load(x86.RCX, op.b)
		nb.load(x86.RDX, op.t0)
		b.I(x86.TEST, x86.R64(x86.RDX), x86.R64(x86.RDX))
		b.Emit(x86.Inst{Op: x86.CMOVCC, Cond: x86.CondE, Dst: x86.R64(x86.RAX), Src: x86.R64(x86.RCX)})
		nb.store(op.dst, x86.RAX)

	case vCtpop:
		b.I(x86.POPCNT, x86.R64(x86.RAX), nb.srcOp(op.a))
		nb.store(op.dst, x86.RAX)

	case vFAdd, vFSub, vFMul, vFDiv:
		// The destination operand is a, as in the guest instruction and in
		// the VM's a OP b: x86 picks the NaN payload by operand position.
		nb.loadX(x86.XMM0, op.a)
		if _, pinned := nb.pin[op.b]; pinned {
			nb.loadX(x86.XMM1, op.b)
			b.I(natFP[op.code], x86.X(x86.XMM0), x86.X(x86.XMM1))
		} else {
			b.I(natFP[op.code], x86.X(x86.XMM0), nb.slotMem(op.b))
		}
		if pr, ok := nb.pin[op.dst]; ok {
			b.I(x86.MOVQGP, x86.R64(pr), x86.X(x86.XMM0))
		} else {
			b.I(x86.MOVSD_X, nb.slotMem(op.dst), x86.X(x86.XMM0))
		}

	case vCopy:
		nb.load(x86.RAX, op.a)
		nb.store(op.dst, x86.RAX)

	case vTrunc:
		nb.load(x86.RAX, op.a)
		switch bits := op.aux; {
		case bits >= 64:
		case bits == 32:
			b.I(x86.MOV, x86.R32(x86.RAX), x86.R32(x86.RAX))
		case bits < 32:
			b.I(x86.AND, x86.R64(x86.RAX), x86.Imm(int64(vmask(bits)), 8))
		default:
			return fmt.Errorf("jit: native trace: %d-bit trunc", op.aux)
		}
		nb.store(op.dst, x86.RAX)

	case vSExt:
		nb.load(x86.RAX, op.a)
		switch op.aux {
		case 8:
			b.I(x86.MOVSX, x86.R64(x86.RAX), x86.R8L(x86.RAX))
		case 16:
			b.I(x86.MOVSX, x86.R64(x86.RAX), x86.R16(x86.RAX))
		case 32:
			b.I(x86.MOVSXD, x86.R64(x86.RAX), x86.R32(x86.RAX))
		default:
			if op.aux < 64 {
				sh := int64(64 - op.aux)
				b.I(x86.SHL, x86.R64(x86.RAX), x86.Imm(sh, 1))
				b.I(x86.SAR, x86.R64(x86.RAX), x86.Imm(sh, 1))
			}
		}
		nb.store(op.dst, x86.RAX)

	case vBr:
		if op.a >= 0 {
			nb.emitMoves(op.a)
		}
		nb.jmp(op.t0, pc+1)

	case vCondBr:
		nb.load(x86.RAX, op.a)
		b.I(x86.TEST, x86.R64(x86.RAX), x86.R64(x86.RAX))
		b.Jcc(x86.CondNE, nb.opLabel[op.t0])
		nb.jmp(op.t1, pc+1)

	case vLoad:
		nb.emitSiteCheck(op.b, op.a, uint64(op.aux), false)
		// RAX = host address.
		switch op.aux {
		case 1:
			b.I(x86.MOVZX, x86.R64(x86.RDX), x86.MemBD(1, x86.RAX, 0))
		case 2:
			b.I(x86.MOVZX, x86.R64(x86.RDX), x86.MemBD(2, x86.RAX, 0))
		case 4:
			b.I(x86.MOV, x86.R32(x86.RDX), x86.MemBD(4, x86.RAX, 0))
		default:
			b.I(x86.MOV, x86.R64(x86.RDX), x86.MemBD(8, x86.RAX, 0))
		}
		nb.store(op.dst, x86.RDX)

	case vStore:
		nb.emitSiteCheck(op.dst, op.a, uint64(op.aux), true)
		nb.load(x86.RDX, op.b)
		switch op.aux {
		case 1:
			b.I(x86.MOV, x86.MemBD(1, x86.RAX, 0), x86.R8L(x86.RDX))
		case 2:
			b.I(x86.MOV, x86.MemBD(2, x86.RAX, 0), x86.R16(x86.RDX))
		case 4:
			b.I(x86.MOV, x86.MemBD(4, x86.RAX, 0), x86.R32(x86.RDX))
		default:
			b.I(x86.MOV, x86.MemBD(8, x86.RAX, 0), x86.R64(x86.RDX))
		}

	case vGenCheck:
		b.I(x86.MOV, x86.R64(x86.RAX), nb.slotMem(nb.p.genPtrOff))
		b.I(x86.MOV, x86.R64(x86.RAX), x86.MemBD(8, x86.RAX, 0))
		b.I(x86.CMP, x86.R64(x86.RAX), nb.slotMem(nb.p.startGenOff))
		b.Jcc(x86.CondNE, nb.exitLabel[op.t0])

	case vExit:
		b.Jmp(nb.exitLabel[op.a])

	default:
		return fmt.Errorf("jit: native trace: unsupported vm op %d", op.code)
	}
	return nil
}

// emitCmp emits the compare for vICmp/vBrICmp and returns the condition.
func (nb *natBuilder) emitCmp(op *vmOp) (x86.Cond, error) {
	cond, ok := predCond[ir.Pred(op.aux)]
	if !ok {
		return 0, fmt.Errorf("jit: native trace: unsupported predicate %d", op.aux)
	}
	nb.load(x86.RAX, op.a)
	if imm, ok := nb.imm32Of(op.b); ok {
		nb.b.I(x86.CMP, x86.R64(x86.RAX), x86.Imm(imm, 8))
	} else {
		nb.b.I(x86.CMP, x86.R64(x86.RAX), nb.srcOp(op.b))
	}
	return cond, nil
}

// emitMoves realizes one phi move set: the pre-sequenced in-order pairs,
// then the cyclic remainder through the buffer words.
func (nb *natBuilder) emitMoves(idx int32) {
	mv := &nb.vm.moves[idx]
	for i := 0; i < len(mv.ord); i += 2 {
		d, s := mv.ord[i], mv.ord[i+1]
		if pd, okd := nb.pin[d]; okd {
			if ps, oks := nb.pin[s]; oks {
				nb.b.I(x86.MOV, x86.R64(pd), x86.R64(ps))
				continue
			}
		}
		nb.load(x86.RAX, s)
		nb.store(d, x86.RAX)
	}
	for i, s := range mv.csrc {
		nb.load(x86.RAX, s)
		nb.b.I(x86.MOV, nb.slotMem(nb.bufBase+int32(i)), x86.R64(x86.RAX))
	}
	for i, d := range mv.cdst {
		nb.b.I(x86.MOV, x86.R64(x86.RAX), nb.slotMem(nb.bufBase+int32(i)))
		nb.store(d, x86.RAX)
	}
}

// emitSiteCheck emits the inline region check for memory site k: bounds
// against the site descriptor, the store watch flag, and the line-split
// penalty. On success RAX holds the host address; any failure jumps to the
// site's miss stub with the guest address still in RAX.
func (nb *natBuilder) emitSiteCheck(k, addrSlot int32, size uint64, write bool) {
	b := nb.b
	b.Bind(nb.recheckLbl[k])
	base := nb.p.siteBase + 4*k
	nb.load(x86.RAX, addrSlot)
	b.I(x86.CMP, x86.R64(x86.RAX), nb.slotMem(base+0))
	b.Jcc(x86.CondB, nb.missLabel[k])
	b.I(x86.CMP, x86.R64(x86.RAX), nb.slotMem(base+1))
	b.Jcc(x86.CondA, nb.missLabel[k])
	if write {
		b.I(x86.MOV, x86.R64(x86.RCX), nb.slotMem(base+3))
		b.I(x86.MOV, x86.R32(x86.RCX), x86.MemBD(4, x86.RCX, 0))
		b.I(x86.TEST, x86.R32(x86.RCX), x86.R32(x86.RCX))
		b.Jcc(x86.CondNE, nb.missLabel[k])
	}
	if mask := nb.vm.lineMask; mask != 0 && size > 1 {
		// (addr & mask) + size > mask+1  ⇔  addr & mask > mask+1-size
		b.I(x86.MOV, x86.R64(x86.RCX), x86.R64(x86.RAX))
		b.I(x86.AND, x86.R64(x86.RCX), x86.Imm(int64(mask), 8))
		b.I(x86.CMP, x86.R64(x86.RCX), x86.Imm(int64(mask+1-size), 8))
		b.Jcc(x86.CondA, nb.missLabel[k])
	}
	b.I(x86.ADD, x86.R64(x86.RAX), nb.slotMem(base+2))
}
