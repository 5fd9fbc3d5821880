package jit

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/x86/asm"
)

// Compiler links IR functions into the emulated address space.
type Compiler struct {
	Mem *emu.Memory
	// NamePrefix, when set, prefixes the names of placed code regions
	// ("jitcode.<prefix><func>"), so memory maps distinguish multiple
	// generations of one function (e.g. the corpus's per-path prefixes).
	NamePrefix string
	// Trace, when non-nil, receives one "jit" span per CompileModule call
	// with the compiled function count and emitted code size. A nil Trace
	// records nothing.
	Trace *trace.Trace
	// Baseline selects the single-pass fused backend: instruction selection
	// and a fixed all-in-slots allocation happen in one walk over the lifted
	// IR, with no fusion analysis, no liveness fixpoint, no linear scan, and
	// no pre-compile verification. Compile latency drops by an order of
	// magnitude; code quality is comparable to an -O0 build. Its only
	// caller is internal/fastpath's lowering route (used by the benchmark's
	// compile_baseline route, the corpus and crosstest).
	Baseline bool
	// entries records where each compiled function was placed.
	entries map[*ir.Func]uint64
	// Sizes records the code size of each compiled function by entry.
	Sizes map[uint64]int
	// globals already materialized.
	globalsDone map[*ir.Global]bool
}

// NewCompiler returns a compiler emitting into mem.
func NewCompiler(mem *emu.Memory) *Compiler {
	return &Compiler{
		Mem:         mem,
		entries:     make(map[*ir.Func]uint64),
		Sizes:       make(map[uint64]int),
		globalsDone: make(map[*ir.Global]bool),
	}
}

// CompileModule compiles all defined functions (callees before callers when
// possible) and returns the entry address of the named function.
func (c *Compiler) CompileModule(m *ir.Module, name string) (uint64, error) {
	sp := c.Trace.Start("jit")
	entry, compiled, err := c.compileModule(m, name)
	if err != nil {
		sp.EndErr(err)
		return 0, err
	}
	sp.Int("funcs_in", int64(compiled)).Int("code_bytes", int64(c.Sizes[entry])).End()
	return entry, nil
}

func (c *Compiler) compileModule(m *ir.Module, name string) (entry uint64, compiled int, err error) {
	for _, g := range m.Globals {
		if err := c.linkGlobal(g); err != nil {
			return 0, 0, err
		}
	}
	// Compile callees first so direct call targets resolve. A simple
	// iteration suffices: compile functions whose callees are all resolved.
	remaining := make([]*ir.Func, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		if len(f.Blocks) > 0 {
			remaining = append(remaining, f)
		}
	}
	for len(remaining) > 0 {
		progress := false
		var next []*ir.Func
		for _, f := range remaining {
			if c.calleesResolved(f) {
				if _, err := c.Compile(f); err != nil {
					return 0, 0, err
				}
				compiled++
				progress = true
			} else {
				next = append(next, f)
			}
		}
		if !progress {
			return 0, 0, fmt.Errorf("jit: circular or unresolved call dependencies")
		}
		remaining = next
	}
	target := m.FindFunc(name)
	if target == nil {
		return 0, 0, fmt.Errorf("jit: function %s not found", name)
	}
	entry, ok := c.entries[target]
	if !ok {
		return 0, 0, fmt.Errorf("jit: function %s was not compiled", name)
	}
	return entry, compiled, nil
}

func (c *Compiler) calleesResolved(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			if in.Op != ir.OpCall {
				continue
			}
			if _, ok := c.entries[in.Callee]; ok {
				continue
			}
			if in.Callee.Addr != 0 && len(in.Callee.Blocks) == 0 {
				continue // declaration backed by original machine code
			}
			if in.Callee == f {
				continue // recursion: resolved to own entry at link time
			}
			return false
		}
	}
	return true
}

// linkGlobal ensures the global has an address in the emulated memory.
func (c *Compiler) linkGlobal(g *ir.Global) error {
	if c.globalsDone[g] {
		return nil
	}
	if g.Addr != 0 {
		// Points into existing memory (e.g. the paper's global-base
		// heuristic or a constant region that is already mapped).
		c.globalsDone[g] = true
		return nil
	}
	size := len(g.Init)
	if size == 0 {
		size = g.Ty.Size()
	}
	if size == 0 {
		size = 8
	}
	r := c.Mem.Alloc(size, 16, "jitdata."+g.Nam)
	copy(r.Data, g.Init)
	g.Addr = r.Start
	c.globalsDone[g] = true
	return nil
}

// Compile lowers one function and places its code in memory, returning the
// entry address.
func (c *Compiler) Compile(f *ir.Func) (uint64, error) {
	if addr, ok := c.entries[f]; ok {
		return addr, nil
	}
	if len(f.Blocks) == 0 {
		return 0, fmt.Errorf("jit: cannot compile declaration %s", f.Nam)
	}
	splitCriticalEdges(f)
	foldTrivialPhis(f)
	if !c.Baseline {
		if err := ir.Verify(f); err != nil {
			return 0, fmt.Errorf("jit: pre-compile verify of %s: %w", f.Nam, err)
		}
	}

	// Lower once, encode once, patch at placement: isel and encoding run a
	// single time, then the code is copied to its region and only the
	// base-dependent rel32 fields are rewritten. The layout base matters
	// only to a MovLabel immediate, which the JIT never emits.
	b, err := c.lowerFunc(f)
	if err != nil {
		return 0, err
	}
	const provisional = 0x10000000
	size, err := b.Layout(provisional)
	if err != nil {
		return 0, fmt.Errorf("jit: %s: %w", f.Nam, err)
	}
	region := c.Mem.Alloc(size, 16, "jitcode."+c.NamePrefix+f.Nam)
	// Place fails if an encoding's length differs from its layout, so the
	// code size cannot change between layout and placement unnoticed.
	if err := b.Place(region.Data, region.Start); err != nil {
		return 0, fmt.Errorf("jit: %s: %w", f.Nam, err)
	}
	c.entries[f] = region.Start
	c.Sizes[region.Start] = size
	return region.Start, nil
}

// Entry returns the compiled address of f, if any.
func (c *Compiler) Entry(f *ir.Func) (uint64, bool) {
	a, ok := c.entries[f]
	return a, ok
}

// lowerFunc runs fusion analysis, register allocation and instruction
// selection over f once and returns the unplaced instruction stream. A
// self-recursive call targets the entry label, bound at offset 0.
func (c *Compiler) lowerFunc(f *ir.Func) (*asm.Builder, error) {
	var al *allocation
	if c.Baseline {
		al = baselineAllocate(f)
	} else {
		fused := analyzeFusion(f)
		al = allocate(f, fused)
	}
	em := &emitter{
		c:      c,
		f:      f,
		alloc:  al,
		b:      asm.NewBuilder(),
		labels: make(map[*ir.Block]asm.Label),
	}
	em.entry = em.b.NewLabel()
	em.b.Bind(em.entry)
	for _, blk := range f.Blocks {
		em.labels[blk] = em.b.NewLabel()
	}
	if err := em.run(); err != nil {
		return nil, fmt.Errorf("jit: %s: %w", f.Nam, err)
	}
	return em.b, nil
}

// splitCriticalEdges inserts forwarding blocks so that every block with
// phis has predecessors whose only successor is that block — a precondition
// for placing phi-edge copies.
func splitCriticalEdges(f *ir.Func) {
	for {
		preds := f.Preds()
		split := false
		for _, b := range f.Blocks {
			if len(b.Insts) == 0 || b.Insts[0].Op != ir.OpPhi {
				continue
			}
			if len(preds[b]) < 2 {
				continue
			}
			for _, p := range preds[b] {
				if len(p.Succs()) < 2 {
					continue
				}
				// Critical edge p -> b: split.
				mid := f.NewBlock(p.Nam + ".crit." + b.Nam)
				mid.Insts = append(mid.Insts, &ir.Inst{Op: ir.OpBr, Ty: ir.Void,
					Blocks: []*ir.Block{b}, Parent: mid})
				pt := p.Term()
				for i, s := range pt.Blocks {
					if s == b {
						pt.Blocks[i] = mid
					}
				}
				for _, in := range b.Insts {
					if in.Op != ir.OpPhi {
						break
					}
					for i, inc := range in.Incoming {
						if inc == p {
							in.Incoming[i] = mid
						}
					}
				}
				split = true
				break
			}
			if split {
				break
			}
		}
		if !split {
			return
		}
	}
}

// foldTrivialPhis removes single-incoming phis.
func foldTrivialPhis(f *ir.Func) {
	repl := make(map[ir.Value]ir.Value)
	for _, b := range f.Blocks {
		out := b.Insts[:0]
		for _, in := range b.Insts {
			if in.Op == ir.OpPhi && len(in.Args) == 1 {
				repl[in] = in.Args[0]
				continue
			}
			out = append(out, in)
		}
		b.Insts = out
	}
	if len(repl) == 0 {
		return
	}
	resolve := func(v ir.Value) ir.Value {
		for {
			n, ok := repl[v]
			if !ok {
				return v
			}
			v = n
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Insts {
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
		}
	}
}
