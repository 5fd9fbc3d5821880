package emu

import (
	"fmt"

	"repro/internal/x86"
)

// This file implements block translation: on first execution of an address,
// the straight-line instruction run up to the next branch/call/ret is
// decoded once into a Block — a slice of pre-bound executor closures with
// operand kinds, widths, register facets, and memory-operand address
// formulas all resolved at translate time. Executing a cached block skips
// the per-instruction fetch, the cost-model lookup, and the big dispatch
// switch the interpreter pays on every instruction.
//
// Exactness contract: a block execution must produce byte-identical
// architectural state and accounting (GPR, XMM, Flags, RIP, InstCount,
// Cycles, memory) to stepping the same instructions through the
// interpreter. Per-step costs are therefore pre-computed but added in
// program order (floating-point accumulation order matters), memory
// penalties are charged inside the bound operand accessors exactly where
// the interpreter charges them, and any instruction without a specialized
// binding falls back to a closure over the interpreter's exec.

// maxBlockLen caps instructions per block so a pathological branch-free
// byte run cannot produce unbounded translations.
const maxBlockLen = 64

type execFn func(*Machine) error

// step is one translated instruction: its bound executor, the pre-computed
// instruction cost, the sequential-next RIP, and the decoded instruction
// (kept for fallback execution and error reporting).
type step struct {
	fn   execFn
	cost float64
	next uint64
	in   *x86.Inst
}

// Block is one translated straight-line run.
type Block struct {
	start, end uint64
	steps      []step

	// chainable marks blocks whose successor PC is a pure function of the
	// flags (fall-through, direct jump/call, conditional branch): the
	// first resolved successor is patched into next/nextPC, and dispatch
	// follows it whenever the guard PC matches — direct block chaining.
	// RET and indirect branches never chain (their target is data).
	chainable bool
	next      *Block
	nextPC    uint64

	// termSetsRIP is true when the terminal step's executor sets RIP itself
	// (all control transfers). Otherwise dispatch settles RIP to end after
	// the block runs — bound executors never need RIP mid-block.
	termSetsRIP bool

	// linkEpoch is the machine's chain epoch at the moment next/nextPC were
	// installed. Machine.InvalidateRange bumps the epoch, so chain-follow
	// can reject links that may point at invalidated blocks without
	// touching the surviving pages.
	linkEpoch uint64

	// hot counts dispatches of this block that arrived over a backward
	// edge; at Machine.TraceOpts.HotThreshold the block becomes a trace
	// head and recording starts.
	hot uint32
	// noTrace blacklists a head whose recording or compile failed, so the
	// dispatcher does not re-record it forever.
	noTrace bool
	// traces are the compiled superblock traces anchored at this block —
	// up to maxTracesPerHead per head, so an alternating-path loop can hold
	// one trace per hot path instead of thrashing side exits forever. Each
	// entry is keyed by the context it was recorded under (the side-exit
	// RIP whose streak triggered the re-record; 0 for the root trace).
	// Entries die with the block on flushTranslations/InvalidateRange.
	traces [maxTracesPerHead]*traceEntry
}

// maxTracesPerHead bounds polymorphic trace selection: a head holds at most
// this many compiled traces before further re-records are refused.
const maxTracesPerHead = 2

// selectTrace picks the installed trace to run for the given entry context:
// the entry recorded under exactly this context if one exists, else the root
// (context-0) entry, else the first installed entry. Returns nil when the
// head has no traces.
func (b *Block) selectTrace(ctx uint64) *traceEntry {
	var root, first *traceEntry
	for _, t := range &b.traces {
		if t == nil {
			continue
		}
		if t.ctx == ctx {
			return t
		}
		if t.ctx == 0 && root == nil {
			root = t
		}
		if first == nil {
			first = t
		}
	}
	if root != nil {
		return root
	}
	return first
}

// installTrace places t in a free slot; reports whether one was free and
// whether this was the head's first trace (so it joins Machine.traced once).
func (b *Block) installTrace(t *traceEntry) (installed, wasEmpty bool) {
	wasEmpty = true
	slot := -1
	for i, e := range &b.traces {
		if e != nil {
			wasEmpty = false
		} else if slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		return false, wasEmpty
	}
	b.traces[slot] = t
	return true, wasEmpty
}

// retireTrace removes t from the head and blacklists the head: the block
// engine takes over at no residual cost per arrival. A link cached on
// another trace still finds the head but selectTrace no longer returns t.
func (b *Block) retireTrace(t *traceEntry) {
	for i, e := range &b.traces {
		if e == t {
			b.traces[i] = nil
		}
	}
	b.abortTrace(AbortNoProgress)
}

// wantsTrace reports whether a backward-edge arrival under ctx should count
// toward recording a (further) trace on this head: always before the first
// trace, and afterwards only when the arrival context matches no installed
// entry (the thrash signal left by a zero-iteration side exit) and a slot is
// free.
func (b *Block) wantsTrace(ctx uint64) bool {
	free := false
	for _, t := range &b.traces {
		if t == nil {
			free = true
		} else if t.ctx == ctx {
			return false
		}
	}
	if !free {
		return false
	}
	if b.traces[0] == nil && b.traces[1] == nil {
		return true
	}
	return ctx != 0
}

// translate decodes and binds the block starting at addr. A decode failure
// on the first instruction is the caller's error (identical to the
// interpreter's fetch fault); a failure later just ends the block, and the
// next dispatch surfaces the same fault at the same RIP the interpreter
// would.
func (m *Machine) translate(addr uint64) (*Block, error) {
	b := &Block{start: addr, chainable: true}
	pc := addr
	for len(b.steps) < maxBlockLen {
		in, err := m.decodeCached(pc)
		if err != nil {
			if len(b.steps) == 0 {
				return nil, err
			}
			break
		}
		next := pc + uint64(in.Len)
		var cost float64
		if m.Cost != nil {
			cost = m.Cost.InstCost(in)
		}
		b.steps = append(b.steps, step{fn: bindExec(in), cost: cost, next: next, in: in})
		pc = next
		if in.IsBranch() {
			switch in.Op {
			case x86.RET, x86.JMPIndirect, x86.CALLIndirect:
				b.chainable = false
			}
			switch in.Op {
			case x86.CALL, x86.CALLIndirect, x86.RET, x86.JMP, x86.JMPIndirect, x86.JCC:
				b.termSetsRIP = true
			}
			break
		}
	}
	b.end = pc
	m.Mem.noteCode(b.start, b.end)
	return b, nil
}

// ---------------------------------------------------------------------------
// Operand binding

type eaFn func(*Machine) uint64
type readFn func(*Machine) (uint64, error)
type writeFn func(*Machine, uint64) error

// bindEA resolves a memory operand's address formula at translate time.
func bindEA(in *x86.Inst, o x86.Operand) eaFn {
	mem := o.Mem
	var base eaFn
	switch {
	case mem.RIPRel:
		c := in.Addr + uint64(in.Len) + uint64(int64(mem.Disp))
		base = func(*Machine) uint64 { return c }
	case mem.Base != x86.NoReg && mem.Index != x86.NoReg:
		b, ix, sc, d := mem.Base, mem.Index, uint64(mem.Scale), uint64(int64(mem.Disp))
		base = func(m *Machine) uint64 { return m.GPR[b] + m.GPR[ix]*sc + d }
	case mem.Base != x86.NoReg:
		b, d := mem.Base, uint64(int64(mem.Disp))
		if d == 0 {
			base = func(m *Machine) uint64 { return m.GPR[b] }
		} else {
			base = func(m *Machine) uint64 { return m.GPR[b] + d }
		}
	case mem.Index != x86.NoReg:
		ix, sc, d := mem.Index, uint64(mem.Scale), uint64(int64(mem.Disp))
		base = func(m *Machine) uint64 { return m.GPR[ix]*sc + d }
	default:
		c := uint64(int64(mem.Disp))
		base = func(*Machine) uint64 { return c }
	}
	switch mem.Seg {
	case x86.SegFS:
		inner := base
		base = func(m *Machine) uint64 { return inner(m) + m.FSBase }
	case x86.SegGS:
		inner := base
		base = func(m *Machine) uint64 { return inner(m) + m.GSBase }
	}
	return base
}

// bindRead resolves an integer operand read (register facet, immediate
// constant, or memory load with pre-bound address formula and accounting).
func bindRead(in *x86.Inst, o x86.Operand) readFn {
	switch o.Kind {
	case x86.KReg:
		r := o.Reg
		if r.IsHighByte() {
			p := r.Parent()
			return func(m *Machine) (uint64, error) { return (m.GPR[p] >> 8) & 0xFF, nil }
		}
		switch o.Size {
		case 1:
			return func(m *Machine) (uint64, error) { return m.GPR[r] & 0xFF, nil }
		case 2:
			return func(m *Machine) (uint64, error) { return m.GPR[r] & 0xFFFF, nil }
		case 4:
			return func(m *Machine) (uint64, error) { return m.GPR[r] & 0xFFFFFFFF, nil }
		default:
			return func(m *Machine) (uint64, error) { return m.GPR[r], nil }
		}
	case x86.KImm:
		v := uint64(o.Imm)
		return func(*Machine) (uint64, error) { return v, nil }
	case x86.KMem:
		return bindMemLoad(bindEA(in, o), int(o.Size))
	}
	return func(*Machine) (uint64, error) { return 0, errEmptyRead }
}

// bindMemLoad builds a load closure with a per-site region cache: each
// translated memory-operand site remembers the region it last hit, so a
// steady-state loop's loads skip the region scan and the shared MRU
// entirely. Regions are immutable once mapped and never unmapped, and
// blocks (hence these closures) are per-machine, so the cached pointer can
// never go stale. Accounting order matches the interpreter's readOp:
// penalty first, then the load (which may fault).
func bindMemLoad(ea eaFn, size int) readFn {
	var cache *Region
	switch size {
	case 8:
		return func(m *Machine) (uint64, error) {
			addr := ea(m)
			m.accountMem(addr, 8, false)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+8 > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, 8); r == nil {
					return 0, &Fault{Addr: addr, Size: 8, Op: "access"}
				}
				cache = r
			}
			off := addr - r.Start
			b := r.Data[off : off+8]
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
		}
	case 4:
		return func(m *Machine) (uint64, error) {
			addr := ea(m)
			m.accountMem(addr, 4, false)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+4 > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, 4); r == nil {
					return 0, &Fault{Addr: addr, Size: 4, Op: "access"}
				}
				cache = r
			}
			off := addr - r.Start
			b := r.Data[off : off+4]
			return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24, nil
		}
	default:
		return func(m *Machine) (uint64, error) {
			addr := ea(m)
			m.accountMem(addr, size, false)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+uint64(size) > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, size); r == nil {
					return 0, &Fault{Addr: addr, Size: size, Op: "access"}
				}
				cache = r
			}
			off := addr - r.Start
			b := r.Data[off : off+uint64(size)]
			switch size {
			case 1:
				return uint64(b[0]), nil
			case 2:
				return uint64(b[0]) | uint64(b[1])<<8, nil
			}
			return 0, fmt.Errorf("emu: bad read size %d", size)
		}
	}
}

// bindMemStore is the store-side counterpart of bindMemLoad, keeping the
// interpreter's code-generation bump for watched (code-bearing) regions.
func bindMemStore(ea eaFn, size int) writeFn {
	var cache *Region
	switch size {
	case 8:
		return func(m *Machine, v uint64) error {
			addr := ea(m)
			m.accountMem(addr, 8, true)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+8 > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, 8); r == nil {
					return &Fault{Addr: addr, Size: 8, Op: "write"}
				}
				cache = r
			}
			if r.watch.Load() {
				m.Mem.codeGen.Add(1)
			}
			off := addr - r.Start
			b := r.Data[off : off+8]
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
			return nil
		}
	case 4:
		return func(m *Machine, v uint64) error {
			addr := ea(m)
			m.accountMem(addr, 4, true)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+4 > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, 4); r == nil {
					return &Fault{Addr: addr, Size: 4, Op: "write"}
				}
				cache = r
			}
			if r.watch.Load() {
				m.Mem.codeGen.Add(1)
			}
			off := addr - r.Start
			b := r.Data[off : off+4]
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			return nil
		}
	default:
		return func(m *Machine, v uint64) error {
			addr := ea(m)
			m.accountMem(addr, size, true)
			r := cache
			if r == nil || addr < r.Start || addr-r.Start+uint64(size) > uint64(len(r.Data)) {
				if r = m.Mem.find(addr, size); r == nil {
					return &Fault{Addr: addr, Size: size, Op: "write"}
				}
				cache = r
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
			default:
				return fmt.Errorf("emu: bad write size %d", size)
			}
			return nil
		}
	}
}

// bindWrite resolves an integer operand write with x86 merge/zero facet
// semantics.
func bindWrite(in *x86.Inst, o x86.Operand) writeFn {
	switch o.Kind {
	case x86.KReg:
		r := o.Reg
		if r.IsHighByte() {
			p := r.Parent()
			return func(m *Machine, v uint64) error {
				m.GPR[p] = m.GPR[p]&^uint64(0xFF00) | (v&0xFF)<<8
				return nil
			}
		}
		switch o.Size {
		case 1:
			return func(m *Machine, v uint64) error {
				m.GPR[r] = m.GPR[r]&^uint64(0xFF) | v&0xFF
				return nil
			}
		case 2:
			return func(m *Machine, v uint64) error {
				m.GPR[r] = m.GPR[r]&^uint64(0xFFFF) | v&0xFFFF
				return nil
			}
		case 4:
			return func(m *Machine, v uint64) error {
				m.GPR[r] = v & 0xFFFFFFFF
				return nil
			}
		default:
			return func(m *Machine, v uint64) error {
				m.GPR[r] = v
				return nil
			}
		}
	case x86.KMem:
		return bindMemStore(bindEA(in, o), int(o.Size))
	}
	return func(*Machine, uint64) error { return errBadWrite }
}

// bindCond resolves a condition code into a flag predicate.
func bindCond(c x86.Cond) func(Flags) bool {
	var base func(Flags) bool
	switch c &^ 1 {
	case x86.CondO:
		base = func(f Flags) bool { return f.OF }
	case x86.CondB:
		base = func(f Flags) bool { return f.CF }
	case x86.CondE:
		base = func(f Flags) bool { return f.ZF }
	case x86.CondBE:
		base = func(f Flags) bool { return f.CF || f.ZF }
	case x86.CondS:
		base = func(f Flags) bool { return f.SF }
	case x86.CondP:
		base = func(f Flags) bool { return f.PF }
	case x86.CondL:
		base = func(f Flags) bool { return f.SF != f.OF }
	case x86.CondLE:
		base = func(f Flags) bool { return f.ZF || (f.SF != f.OF) }
	default:
		base = func(Flags) bool { return false }
	}
	if c&1 != 0 {
		return func(f Flags) bool { return !base(f) }
	}
	return base
}
