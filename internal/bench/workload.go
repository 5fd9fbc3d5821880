// Package bench implements the paper's evaluation (Section VI): the five
// code-generation modes — Original, LLVM transformation, LLVM transformation
// with parameter fixation, DBrew, and DBrew combined with the LLVM backend —
// applied to the element and line kernels over the three stencil structures,
// plus the cycle-model measurement that regenerates Figures 9a and 9b, the
// Figure 6–8 listings, the Section VI-B forced-vectorization experiment and
// the ablations. Everything here is deterministic; wall-clock timing
// (Figure 10 transformation times, engine rates, tiering, serving) is the
// job of the benchmark/ module, which builds its workloads on this package.
package bench

import (
	"fmt"
	"time"

	"repro/internal/abi"
	"repro/internal/dbrew"
	"repro/internal/emu"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/lift"
	"repro/internal/opt"
	"repro/internal/stencil"
	"repro/internal/x86/asm"
)

// Mode is one of the five evaluation modes.
type Mode int

// Evaluation modes (Section VI).
const (
	Native    Mode = iota // Original: unmodified, as produced by the compiler
	LLVM                  // lift -> O3 -> JIT (identity transformation)
	LLVMFix               // lift -> fix stencil parameter at IR level -> O3 -> JIT
	DBrew                 // specialize by binary rewriting
	DBrewLLVM             // DBrew output lifted and post-processed by the LLVM backend
)

var modeNames = map[Mode]string{
	Native: "Native", LLVM: "LLVM", LLVMFix: "LLVM-fix", DBrew: "DBrew", DBrewLLVM: "DBrew+LLVM",
}

// String names the mode as in the paper's figures.
func (m Mode) String() string { return modeNames[m] }

// AllModes lists the modes in the paper's bar order.
var AllModes = []Mode{Native, LLVM, LLVMFix, DBrew, DBrewLLVM}

// Structure selects the stencil representation.
type Structure int

// Structures (the figure groups).
const (
	Direct Structure = iota
	Flat
	Sorted
)

var structNames = map[Structure]string{Direct: "Direct", Flat: "Struct", Sorted: "SortedStruct"}

// String names the data-structure variant.
func (s Structure) String() string { return structNames[s] }

// AllStructures lists the figure groups.
var AllStructures = []Structure{Direct, Flat, Sorted}

// Kind selects the element or line kernel experiments.
type Kind int

// Kernel kinds.
const (
	Element Kind = iota
	Line
)

// String names the kernel granularity.
func (k Kind) String() string {
	if k == Element {
		return "element"
	}
	return "line"
}

// Workload bundles the memory image, code corpus, matrices, and serialized
// stencils for one experiment configuration.
type Workload struct {
	Mem     *emu.Memory
	Corpus  *kernels.Corpus
	Stencil stencil.Stencil
	M1, M2  *stencil.Matrix
	SZ      int

	FlatAddr uint64
	FlatSize int

	SortedAddr   uint64
	SortedHeader int
	SortedSize   int
}

// NewWorkload builds the full workload for side length sz (the paper: 649)
// with the 4-point Jacobi stencil.
func NewWorkload(sz int) (*Workload, error) {
	return NewWorkloadStencil(sz, stencil.FourPoint())
}

// NewWorkloadStencil builds a workload with an arbitrary stencil (e.g. the
// 8-point variant with two coefficient groups).
func NewWorkloadStencil(sz int, st stencil.Stencil) (*Workload, error) {
	mem := emu.NewMemory(0x10000000)
	c, err := kernels.Build(mem, sz)
	if err != nil {
		return nil, err
	}
	w := &Workload{Mem: mem, Corpus: c, Stencil: st, SZ: sz}
	w.M1 = stencil.NewMatrix(mem, sz, "m1")
	w.M2 = stencil.NewMatrix(mem, sz, "m2")
	w.M1.InitBoundary()
	w.M2.InitBoundary()
	// A non-trivial interior so correctness checks are meaningful.
	for r := 1; r < sz-1; r++ {
		for col := 1; col < sz-1; col++ {
			w.M1.Set(r, col, float64((r*37+col*11)%100)/128.0)
		}
	}
	if w.FlatAddr, w.FlatSize, err = w.Stencil.SerializeFlat(mem); err != nil {
		return nil, err
	}
	if w.SortedAddr, w.SortedHeader, w.SortedSize, err = w.Stencil.SerializeSorted(mem); err != nil {
		return nil, err
	}
	return w, nil
}

// inputFor returns the machine entry, stencil address, full stencil size,
// and header size for a (kind, structure, mode) combination. DBrew modes use
// the call-based line kernels, as in the paper.
func (w *Workload) inputFor(kind Kind, s Structure, mode Mode) (entry, sAddr uint64, fullSize, headerSize int) {
	c := w.Corpus
	dbrewMode := mode == DBrew || mode == DBrewLLVM
	switch s {
	case Direct:
		sAddr, fullSize, headerSize = w.FlatAddr, w.FlatSize, w.FlatSize
		if kind == Element {
			entry = c.DirectElem
		} else if dbrewMode {
			entry = c.DirectLineCall
		} else {
			entry = c.DirectLine
		}
	case Flat:
		sAddr, fullSize, headerSize = w.FlatAddr, w.FlatSize, w.FlatSize
		if kind == Element {
			entry = c.FlatElem
		} else if dbrewMode {
			entry = c.FlatLineCall
		} else {
			entry = c.FlatLine
		}
	case Sorted:
		sAddr, fullSize, headerSize = w.SortedAddr, w.SortedSize, w.SortedHeader
		if kind == Element {
			entry = c.SortedElem
		} else if dbrewMode {
			entry = c.SortedLineCall
		} else {
			entry = c.SortedLine
		}
	}
	return
}

func sigFor(kind Kind) abi.Signature {
	if kind == Element {
		return kernels.ElemSig
	}
	return kernels.LineSig
}

// Variant is a runnable code variant plus preparation metadata.
type Variant struct {
	Kind      Kind
	Structure Structure
	Mode      Mode

	Entry uint64
	// DropStencilArg is set for LLVM-fix variants: the wrapper takes
	// (m1, m2, index[, n]) because the stencil parameter was fixed away.
	DropStencilArg bool
	StencilAddr    uint64

	// CompileTime is the wall-clock cost of the preparation (Figure 10).
	CompileTime time.Duration
	// CodeSize is the generated code size (0 for Native).
	CodeSize int
	// Notes carries pipeline statistics.
	Notes string

	// driver caches the per-element measurement loop so repeated
	// MeasureRows calls do not grow the emulated address space.
	driver uint64
}

// Options tweak preparation (ablations and the Section VI-B experiment).
type Options struct {
	ForceVectorWidth int
	LiftOpts         *lift.Options
	OptLevel         int  // -1 overrides to a no-opt pipeline
	NoFastMath       bool // disable FP optimizations
	// PipelineMod, when set, adjusts the optimization configuration (used
	// by the per-pass ablation study).
	PipelineMod func(*opt.Config)
}

// Prepare builds the code variant for the given configuration.
func (w *Workload) Prepare(kind Kind, s Structure, mode Mode, o Options) (*Variant, error) {
	entry, sAddr, fullSize, headerSize := w.inputFor(kind, s, mode)
	v := &Variant{Kind: kind, Structure: s, Mode: mode, StencilAddr: sAddr}
	sig := sigFor(kind)

	lo := lift.DefaultOptions()
	if o.LiftOpts != nil {
		lo = *o.LiftOpts
	}
	cfg := opt.O3()
	cfg.FastMath = !o.NoFastMath
	cfg.ForceVectorWidth = o.ForceVectorWidth
	if o.OptLevel == -1 {
		cfg.Level = 0
	}
	if o.PipelineMod != nil {
		o.PipelineMod(&cfg)
	}

	start := time.Now()
	switch mode {
	case Native:
		v.Entry = entry
		v.CodeSize = w.Corpus.Sizes[entry]

	case LLVM:
		l := w.liftInput(lo)
		f, err := l.LiftFunc(entry, fmt.Sprintf("k_%s_%s", kind, s), sig)
		if err != nil {
			return nil, fmt.Errorf("bench: lift: %w", err)
		}
		st := opt.Optimize(f, cfg)
		comp := jit.NewCompiler(w.Mem)
		addr, err := comp.CompileModule(l.Module, f.Nam)
		if err != nil {
			return nil, fmt.Errorf("bench: jit: %w", err)
		}
		v.Entry = addr
		v.CodeSize = comp.Sizes[addr]
		v.Notes = fmt.Sprintf("insts %d->%d", st.InstsBefore, st.InstsAfter)

	case LLVMFix:
		l := w.liftInput(lo)
		f, err := l.LiftFunc(entry, fmt.Sprintf("k_%s_%s", kind, s), sig)
		if err != nil {
			return nil, fmt.Errorf("bench: lift: %w", err)
		}
		// Fix parameter 0 (the stencil pointer) to its runtime value via a
		// wrapper plus always-inline (Section IV), then globalize the
		// explicitly-sized constant region. Nested pointers (the sorted
		// structure's group table targets) are NOT followed.
		g := &ir.Global{Nam: "stencil_fixed", Ty: ir.I8, Addr: sAddr, Const: true}
		l.Module.AddGlobal(g)
		wrap, err := opt.FixParam(l.Module, f, 0, g)
		if err != nil {
			return nil, err
		}
		ranges := []opt.ConstRange{{Start: sAddr, Size: headerSize}}
		st := opt.Optimize(wrap, cfg)
		inlined, unrolled := st.Inlined, st.Unrolled
		// Alternate constant-memory folding with the standard pipeline until
		// a fixed point: inlining exposes constant addresses, folding their
		// loads enables unrolling, which exposes more constant addresses.
		last := st
		for i := 0; i < 6; i++ {
			n, err := opt.GlobalizeConstMem(l.Module, wrap, w.Mem, ranges)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
			last = opt.Optimize(wrap, cfg)
			inlined += last.Inlined
			unrolled += last.Unrolled
		}
		comp := jit.NewCompiler(w.Mem)
		addr, err := comp.CompileModule(l.Module, wrap.Nam)
		if err != nil {
			return nil, fmt.Errorf("bench: jit: %w", err)
		}
		v.Entry = addr
		v.DropStencilArg = true
		v.CodeSize = comp.Sizes[addr]
		v.Notes = fmt.Sprintf("inlined %d, unrolled %d, insts %d->%d",
			inlined, unrolled, st.InstsBefore, last.InstsAfter)

	case DBrew:
		r := dbrew.NewRewriter(w.Mem, entry, sig)
		r.SetParPtr(0, sAddr, fullSize)
		addr, err := r.Rewrite()
		if err != nil {
			return nil, fmt.Errorf("bench: dbrew: %w", err)
		}
		if r.Stats.Failed {
			return nil, fmt.Errorf("bench: dbrew fell back to original: %v", r.Stats.Err)
		}
		v.Entry = addr
		v.CodeSize = r.Stats.CodeSize
		v.Notes = fmt.Sprintf("emitted %d, eliminated %d, inlined %d",
			r.Stats.Emitted, r.Stats.Eliminated, r.Stats.Inlined)

	case DBrewLLVM:
		r := dbrew.NewRewriter(w.Mem, entry, sig)
		r.SetParPtr(0, sAddr, fullSize)
		addr, err := r.Rewrite()
		if err != nil {
			return nil, fmt.Errorf("bench: dbrew: %w", err)
		}
		if r.Stats.Failed {
			return nil, fmt.Errorf("bench: dbrew fell back to original: %v", r.Stats.Err)
		}
		l := w.liftInput(lo)
		f, err := l.LiftFunc(addr, fmt.Sprintf("dbl_%s_%s", kind, s), sig)
		if err != nil {
			return nil, fmt.Errorf("bench: lift dbrew output: %w", err)
		}
		st := opt.Optimize(f, cfg)
		comp := jit.NewCompiler(w.Mem)
		jaddr, err := comp.CompileModule(l.Module, f.Nam)
		if err != nil {
			return nil, fmt.Errorf("bench: jit: %w", err)
		}
		v.Entry = jaddr
		v.CodeSize = comp.Sizes[jaddr]
		v.Notes = fmt.Sprintf("dbrew emitted %d; insts %d->%d",
			r.Stats.Emitted, st.InstsBefore, st.InstsAfter)
	}
	v.CompileTime = time.Since(start)
	return v, nil
}

// liftInput returns a lifter with the corpus call targets declared, so the
// call-based line kernels lift (the callee is lifted as its own function).
func (w *Workload) liftInput(lo lift.Options) *lift.Lifter {
	l := lift.New(w.Mem, lo)
	c := w.Corpus
	l.Declare(c.DirectElem, "direct_elem", kernels.ElemSig)
	l.Declare(c.FlatElem, "flat_elem", kernels.ElemSig)
	l.Declare(c.SortedElem, "sorted_elem", kernels.ElemSig)
	return l
}

// driverFor assembles the measurement driver loop: it iterates over one line
// calling the variant per element (Element kind), matching the paper's
// "running time also includes the loop used to iterate over the matrix and
// the overhead of the function call".
func (w *Workload) driverFor(v *Variant) (uint64, error) {
	b := asm.NewBuilder()
	if v.DropStencilArg {
		buildDriver3(b, v.Entry)
	} else {
		buildDriver4(b, v.Entry)
	}
	// Provisional sizing pass: assemble near the call target so the rel32
	// range check cannot fire regardless of where the allocator is.
	code, _, err := b.Assemble(v.Entry)
	if err != nil {
		return 0, err
	}
	region := w.Mem.Alloc(len(code), 16, "bench.driver")
	code, _, err = b.Assemble(region.Start)
	if err != nil {
		return 0, err
	}
	copy(region.Data, code)
	return region.Start, nil
}

// Disassemble returns the generated code of a prepared variant.
func (w *Workload) Disassemble(v *Variant) ([]string, error) {
	return dbrew.Listing(w.Mem, v.Entry, v.CodeSize)
}
