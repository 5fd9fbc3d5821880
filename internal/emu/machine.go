package emu

import (
	"fmt"
	"math"

	"repro/internal/x86"
)

func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(u uint64) float64 { return math.Float64frombits(u) }
func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32frombits(u uint32) float32 { return math.Float32frombits(u) }

// XMMReg holds one SSE register as two 64-bit little-endian lanes.
type XMMReg struct {
	Lo, Hi uint64
}

// Lanes32 decomposes the register into four 32-bit lanes.
func (x XMMReg) Lanes32() [4]uint32 {
	return [4]uint32{uint32(x.Lo), uint32(x.Lo >> 32), uint32(x.Hi), uint32(x.Hi >> 32)}
}

// FromLanes32 rebuilds the register from four 32-bit lanes.
func FromLanes32(l [4]uint32) XMMReg {
	return XMMReg{
		Lo: uint64(l[0]) | uint64(l[1])<<32,
		Hi: uint64(l[2]) | uint64(l[3])<<32,
	}
}

// Flags is the modelled subset of RFLAGS: the six status flags the paper's
// lifter reconstructs.
type Flags struct {
	CF, PF, AF, ZF, SF, OF bool
}

// Machine is the architectural state of the emulated CPU plus execution
// bookkeeping (instruction cache, cycle accounting, per-op statistics).
type Machine struct {
	GPR   [16]uint64
	XMM   [16]XMMReg
	Flags Flags
	RIP   uint64
	Mem   *Memory

	// FSBase/GSBase are segment bases for fs:/gs: overrides.
	FSBase, GSBase uint64

	// Cost is the timing model; nil disables cycle accounting.
	Cost *CostModel
	// Cycles accumulates modelled cycles, InstCount retired instructions.
	Cycles    float64
	InstCount uint64
	// OpCount tallies retired instructions per opcode when CountOps is set.
	CountOps bool
	OpCount  map[x86.Op]uint64

	// CallHook, when non-nil, intercepts CALL targets. Returning handled ==
	// true skips the call (the hook is responsible for machine effects).
	CallHook func(m *Machine, target uint64) (handled bool, err error)

	// Interp forces the per-instruction interpreter — the pre-translation
	// execution path — even where Run would use translated blocks. Step
	// always interprets; Run also falls back when CountOps or CallHook is
	// set, so single-stepping and hooks observe every instruction.
	Interp bool

	// Traces enables the tracing JIT tier on top of the block engine: hot
	// backward edges promote their target block to a superblock trace
	// compiled through lift → opt → jit. It is effective only when a trace
	// compiler is registered (importing internal/jit does that) and the
	// machine runs on the block path (no Interp/CountOps/CallHook).
	Traces bool
	// TraceOpts tunes the trace tier; zero fields take defaults.
	TraceOpts TraceOptions

	// pages is the flat page-indexed code cache: decoded instructions and
	// translated blocks, indexed by page base and in-page offset. It
	// replaces the old per-instruction map.
	pages    map[uint64]*codePage
	lastPage *codePage
	lastBase uint64

	// lastBlock is the one-entry last-block cache for loop backedges.
	lastBlock *Block
	// cacheGen is the Memory code generation the cached translations were
	// built under; a mismatch lazily drops them.
	cacheGen uint64
	// costBound is the cost model the cached blocks' per-step costs were
	// computed with; swapping models flushes translations.
	costBound *CostModel

	// lastMem is the machine-local MRU region cache. Regions are immutable
	// once mapped and never unmapped, so caching the pointer is safe; the
	// machine itself is single-goroutine.
	lastMem *Region

	// chainEpoch invalidates direct block-to-block chain links:
	// InvalidateRange bumps it, and chain-follow rejects links installed
	// under an older epoch (they may point at an invalidated block whose
	// page was dropped while the predecessor's page survived).
	chainEpoch uint64

	// traced tracks blocks carrying a compiled trace, so InvalidateRange
	// can drop traces whose body may overlap the invalidated bytes even
	// when the head block's own page survives.
	traced []*Block

	// traceCtx is the polymorphic-selection hint: the side-exit RIP of the
	// last trace run that retired zero complete iterations (the trace
	// followed the wrong path for the current data), or 0 after a
	// productive run. Heads select — and, when thrashing persists, record —
	// trace entries keyed by it. Purely a performance hint; stale values
	// only cost an extra selection miss.
	traceCtx uint64
}

// NewMachine returns a machine over mem with the default cost model.
func NewMachine(mem *Memory) *Machine {
	m := &Machine{
		Mem:    mem,
		Cost:   HaswellModel(),
		Traces: true,
		pages:  make(map[uint64]*codePage),
	}
	m.cacheGen = mem.CodeGen()
	m.costBound = m.Cost
	return m
}

// returnSentinel is the fake return address pushed by Call; reaching it
// terminates execution.
const returnSentinel = 0xDEAD0000DEAD0000

// fetch decodes (with caching) the instruction at RIP.
func (m *Machine) fetch() (*x86.Inst, error) { return m.decodeCached(m.RIP) }

// decodeCached returns the decoded instruction at addr through the
// page-indexed cache. The decode window is the remaining span of the
// containing region, asked for once, instead of probing ever-shorter
// windows near a region tail.
func (m *Machine) decodeCached(addr uint64) (*x86.Inst, error) {
	pg, off := m.page(addr)
	if in := pg.insts[off]; in != nil {
		return in, nil
	}
	// Longest x86 instruction is 15 bytes; tolerate shorter region tails.
	code, err := m.Mem.Tail(addr, 15)
	if err != nil || len(code) == 0 {
		return nil, &Fault{Addr: addr, Size: 1, Op: "fetch"}
	}
	in, err := x86.Decode(code, addr)
	if err != nil {
		return nil, err
	}
	p := &in
	pg.insts[off] = p
	return p, nil
}

// gpRead reads a general purpose register facet.
func (m *Machine) gpRead(r x86.Reg, size uint8) uint64 {
	if r.IsHighByte() {
		return (m.GPR[r.Parent()] >> 8) & 0xFF
	}
	v := m.GPR[r]
	switch size {
	case 1:
		return v & 0xFF
	case 2:
		return v & 0xFFFF
	case 4:
		return v & 0xFFFFFFFF
	}
	return v
}

// gpWrite writes a general purpose register facet with x86 merge/zero
// semantics: 32-bit writes zero the upper half, 8/16-bit writes preserve it.
func (m *Machine) gpWrite(r x86.Reg, size uint8, v uint64) {
	if r.IsHighByte() {
		p := r.Parent()
		m.GPR[p] = m.GPR[p]&^uint64(0xFF00) | (v&0xFF)<<8
		return
	}
	switch size {
	case 1:
		m.GPR[r] = m.GPR[r]&^uint64(0xFF) | v&0xFF
	case 2:
		m.GPR[r] = m.GPR[r]&^uint64(0xFFFF) | v&0xFFFF
	case 4:
		m.GPR[r] = v & 0xFFFFFFFF
	default:
		m.GPR[r] = v
	}
}

// ea computes the effective address of a memory operand. For RIP-relative
// operands the displacement is relative to the end of the instruction.
func (m *Machine) ea(in *x86.Inst, o x86.Operand) uint64 {
	mem := o.Mem
	var addr uint64
	if mem.RIPRel {
		addr = in.Addr + uint64(in.Len) + uint64(int64(mem.Disp))
	} else {
		if mem.Base != x86.NoReg {
			addr = m.GPR[mem.Base]
		}
		if mem.Index != x86.NoReg {
			addr += m.GPR[mem.Index] * uint64(mem.Scale)
		}
		addr += uint64(int64(mem.Disp))
	}
	switch mem.Seg {
	case x86.SegFS:
		addr += m.FSBase
	case x86.SegGS:
		addr += m.GSBase
	}
	return addr
}

// regionFor resolves the region containing [addr, addr+size) through the
// machine-local MRU cache, so straight-line kernel loops touching one
// region skip both the region scan and the shared atomic MRU in Memory.
func (m *Machine) regionFor(addr uint64, size int) *Region {
	if r := m.lastMem; r != nil && addr >= r.Start && addr-r.Start+uint64(size) <= uint64(len(r.Data)) {
		return r
	}
	r := m.Mem.find(addr, size)
	if r != nil {
		m.lastMem = r
	}
	return r
}

// memLoad reads a little-endian unsigned integer via the MRU region cache.
func (m *Machine) memLoad(addr uint64, size int) (uint64, error) {
	r := m.regionFor(addr, size)
	if r == nil {
		return 0, &Fault{Addr: addr, Size: size, Op: "access"}
	}
	off := addr - r.Start
	b := r.Data[off : off+uint64(size)]
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(b[0]) | uint64(b[1])<<8, nil
	case 4:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24, nil
	case 8:
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
	}
	return 0, fmt.Errorf("emu: bad read size %d", size)
}

// memStore writes a little-endian unsigned integer via the MRU region
// cache, bumping the code generation when the region holds translated code.
func (m *Machine) memStore(addr uint64, size int, v uint64) error {
	r := m.regionFor(addr, size)
	if r == nil {
		return &Fault{Addr: addr, Size: size, Op: "write"}
	}
	if r.watch.Load() {
		m.Mem.codeGen.Add(1)
	}
	off := addr - r.Start
	b := r.Data[off : off+uint64(size)]
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		b[0], b[1] = byte(v), byte(v>>8)
	case 4:
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	case 8:
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
	default:
		return fmt.Errorf("emu: bad write size %d", size)
	}
	return nil
}

// memLoad128 reads a 16-byte value as two little-endian 64-bit lanes.
func (m *Machine) memLoad128(addr uint64) (lo, hi uint64, err error) {
	if r := m.regionFor(addr, 16); r == nil {
		return 0, 0, &Fault{Addr: addr, Size: 16, Op: "access"}
	}
	lo, _ = m.memLoad(addr, 8)
	hi, _ = m.memLoad(addr+8, 8)
	return lo, hi, nil
}

// memStore128 writes a 16-byte value from two 64-bit lanes.
func (m *Machine) memStore128(addr uint64, lo, hi uint64) error {
	if r := m.regionFor(addr, 16); r == nil {
		return &Fault{Addr: addr, Size: 16, Op: "write"}
	}
	if err := m.memStore(addr, 8, lo); err != nil {
		return err
	}
	return m.memStore(addr+8, 8, hi)
}

// readOp reads an integer operand value (register, immediate, or memory).
func (m *Machine) readOp(in *x86.Inst, o x86.Operand) (uint64, error) {
	switch o.Kind {
	case x86.KReg:
		return m.gpRead(o.Reg, o.Size), nil
	case x86.KImm:
		return uint64(o.Imm), nil
	case x86.KMem:
		addr := m.ea(in, o)
		m.accountMem(addr, int(o.Size), false)
		return m.memLoad(addr, int(o.Size))
	}
	return 0, fmt.Errorf("emu: read of empty operand")
}

// writeOp writes an integer operand destination.
func (m *Machine) writeOp(in *x86.Inst, o x86.Operand, v uint64) error {
	switch o.Kind {
	case x86.KReg:
		m.gpWrite(o.Reg, o.Size, v)
		return nil
	case x86.KMem:
		addr := m.ea(in, o)
		m.accountMem(addr, int(o.Size), true)
		return m.memStore(addr, int(o.Size), v)
	}
	return fmt.Errorf("emu: write to bad operand")
}

func (m *Machine) accountMem(addr uint64, size int, write bool) {
	if m.Cost != nil {
		m.Cycles += m.Cost.MemPenalty(addr, size, write)
	}
}

// push pushes a 64-bit value.
func (m *Machine) push(v uint64) error {
	m.GPR[x86.RSP] -= 8
	return m.memStore(m.GPR[x86.RSP], 8, v)
}

// pop pops a 64-bit value.
func (m *Machine) pop() (uint64, error) {
	v, err := m.memLoad(m.GPR[x86.RSP], 8)
	m.GPR[x86.RSP] += 8
	return v, err
}

// CondHolds evaluates an x86 condition code against the current flags.
func (m *Machine) CondHolds(c x86.Cond) bool { return CondHoldsIn(m.Flags, c) }

// Step fetches, decodes, and executes one instruction.
func (m *Machine) Step() error {
	in, err := m.fetch()
	if err != nil {
		return err
	}
	m.InstCount++
	if m.Cost != nil {
		m.Cycles += m.Cost.InstCost(in)
	}
	if m.CountOps {
		if m.OpCount == nil {
			m.OpCount = make(map[x86.Op]uint64)
		}
		m.OpCount[in.Op]++
	}
	next := m.RIP + uint64(in.Len)
	m.RIP = next
	if err := m.exec(in); err != nil {
		return fmt.Errorf("emu: at %#x %v: %w", in.Addr, in, err)
	}
	return nil
}

// Run executes until the return sentinel is reached or maxInst instructions
// retire in this run (0 means no limit).
//
// Straight-line runs execute through cached, pre-bound translated blocks
// (see block.go); the per-instruction interpreter is used instead when
// Interp, CountOps, or CallHook asks to observe every instruction. Both
// paths produce identical architectural results and accounting.
func (m *Machine) Run(maxInst uint64) error {
	if m.Interp || m.CountOps || m.CallHook != nil {
		return m.runInterp(maxInst)
	}
	return m.runBlocks(maxInst)
}

// runInterp is the pre-translation execution loop: fetch, decode (cached),
// and execute one instruction at a time.
func (m *Machine) runInterp(maxInst uint64) error {
	var n uint64
	for m.RIP != returnSentinel {
		if err := m.Step(); err != nil {
			return err
		}
		n++
		if maxInst > 0 && n >= maxInst {
			return fmt.Errorf("emu: instruction budget of %d exhausted at %#x", maxInst, m.RIP)
		}
	}
	return nil
}

// CallArgs describes a SysV AMD64 call: integer args fill RDI, RSI, RDX,
// RCX, R8, R9; float args fill XMM0..XMM7.
type CallArgs struct {
	Ints   []uint64
	Floats []float64
}

// Call executes the function at entry with the given arguments on a fresh
// stack, following the SysV AMD64 calling convention, and returns RAX.
func (m *Machine) Call(entry uint64, args CallArgs, maxInst uint64) (uint64, error) {
	intRegs := []x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}
	if len(args.Ints) > len(intRegs) {
		return 0, fmt.Errorf("emu: too many integer args (%d)", len(args.Ints))
	}
	for i, v := range args.Ints {
		m.GPR[intRegs[i]] = v
	}
	if len(args.Floats) > 8 {
		return 0, fmt.Errorf("emu: too many float args (%d)", len(args.Floats))
	}
	for i, v := range args.Floats {
		m.XMM[i] = XMMReg{Lo: f64bits(v)}
	}
	if m.GPR[x86.RSP] == 0 {
		if m.Mem.stack == nil {
			m.Mem.stack = m.Mem.Alloc(1<<20, 4096, "stack")
		}
		m.GPR[x86.RSP] = m.Mem.stack.End() - 64
	}
	if err := m.push(returnSentinel); err != nil {
		return 0, err
	}
	m.RIP = entry
	if err := m.Run(maxInst); err != nil {
		return 0, err
	}
	return m.GPR[x86.RAX], nil
}

// ResetStats clears cycle and instruction accounting.
func (m *Machine) ResetStats() {
	m.Cycles = 0
	m.InstCount = 0
	m.OpCount = nil
}

// Reset clears the architectural state and accounting so the machine can be
// reused for an independent call. The code cache (decoded instructions and
// translated blocks) survives: placed code pages are immutable, so previous
// translations stay valid, which is what makes pooled machines cheap (no
// per-call re-translation). Code patched through Memory write paths is
// picked up automatically via the code generation; callers that patch
// region bytes directly must still use FlushICache or InvalidateRange.
func (m *Machine) Reset() {
	m.GPR = [16]uint64{}
	m.XMM = [16]XMMReg{}
	m.Flags = Flags{}
	m.RIP = 0
	m.ResetStats()
}
