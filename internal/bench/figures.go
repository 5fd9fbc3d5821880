package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/abi"
	"repro/internal/dbrew"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/kernels"
	"repro/internal/lift"
	"repro/internal/opt"
)

// Bar is one measurement bar of Figure 9.
type Bar struct {
	Structure Structure
	Mode      Mode
	Seconds   float64
	CycPerEl  float64
	InstPerEl float64
	Notes     string
}

// FigureResult is the regenerated data of one running-time figure.
type FigureResult struct {
	Name string
	Kind Kind
	Bars []Bar
}

// RunFigure9 regenerates Figure 9a (Element) or 9b (Line): the fifteen bars
// of running time for the projected full workload (50,000 Jacobi iterations
// on the SZ×SZ matrix).
func (w *Workload) RunFigure9(kind Kind, rows int) (*FigureResult, error) {
	name := "Figure 9a (element kernel)"
	if kind == Line {
		name = "Figure 9b (line kernel)"
	}
	res := &FigureResult{Name: name, Kind: kind}
	for _, s := range AllStructures {
		for _, mode := range AllModes {
			v, err := w.Prepare(kind, s, mode, Options{})
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", s, mode, err)
			}
			m, err := w.MeasureRows(v, rows)
			if err != nil {
				return nil, fmt.Errorf("%v/%v: %w", s, mode, err)
			}
			res.Bars = append(res.Bars, Bar{
				Structure: s, Mode: mode,
				Seconds: m.Seconds, CycPerEl: m.CyclesPerElem, InstPerEl: m.InstsPerElem,
				Notes: v.Notes,
			})
		}
	}
	return res, nil
}

// Format renders the figure as the table the paper's bar chart encodes.
func (r *FigureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — run time for %d iterations [s]\n", r.Name, Iters)
	fmt.Fprintf(&b, "%-14s %-12s %10s %10s %10s\n", "structure", "mode", "time [s]", "cyc/elem", "inst/elem")
	for _, bar := range r.Bars {
		fmt.Fprintf(&b, "%-14s %-12s %10.2f %10.2f %10.1f\n",
			bar.Structure, bar.Mode, bar.Seconds, bar.CycPerEl, bar.InstPerEl)
	}
	return b.String()
}

// Get returns the bar for (structure, mode).
func (r *FigureResult) Get(s Structure, m Mode) *Bar {
	for i := range r.Bars {
		if r.Bars[i].Structure == s && r.Bars[i].Mode == m {
			return &r.Bars[i]
		}
	}
	return nil
}

// VectorizationResult is the Section VI-B experiment.
type VectorizationResult struct {
	GCCAligned   Measurement // native vectorized direct line kernel
	ForcedVector Measurement // specialized flat line, -force-vector-width=2
	ScalarFix    Measurement // same without forcing (cost model declines)
	Ratio        float64     // forced / aligned (the paper reports ~1.23)
}

// RunVectorization regenerates the forced-vectorization comparison.
func (w *Workload) RunVectorization(rows int) (*VectorizationResult, error) {
	nat, err := w.Prepare(Line, Direct, Native, Options{})
	if err != nil {
		return nil, err
	}
	mn, err := w.MeasureRows(nat, rows)
	if err != nil {
		return nil, err
	}
	forced, err := w.Prepare(Line, Flat, LLVMFix, Options{ForceVectorWidth: 2})
	if err != nil {
		return nil, err
	}
	mf, err := w.MeasureRows(forced, rows)
	if err != nil {
		return nil, err
	}
	scalar, err := w.Prepare(Line, Flat, LLVMFix, Options{})
	if err != nil {
		return nil, err
	}
	ms, err := w.MeasureRows(scalar, rows)
	if err != nil {
		return nil, err
	}
	return &VectorizationResult{
		GCCAligned:   mn,
		ForcedVector: mf,
		ScalarFix:    ms,
		Ratio:        mf.CyclesPerElem / mn.CyclesPerElem,
	}, nil
}

// Format renders the vectorization experiment.
func (r *VectorizationResult) Format() string {
	var b strings.Builder
	b.WriteString("Section VI-B — forced vectorization of the specialized line kernel\n")
	fmt.Fprintf(&b, "  GCC compile-time vectorized (aligned stores): %6.2f cyc/elem\n", r.GCCAligned.CyclesPerElem)
	fmt.Fprintf(&b, "  forced -force-vector-width=2  (unaligned):    %6.2f cyc/elem\n", r.ForcedVector.CyclesPerElem)
	fmt.Fprintf(&b, "  cost model unforced (stays scalar):           %6.2f cyc/elem\n", r.ScalarFix.CyclesPerElem)
	fmt.Fprintf(&b, "  forced/aligned ratio: %.2f (paper: ~1.23)\n", r.Ratio)
	return b.String()
}

// Figure8Listings regenerates the Figure 8 comparison: the sorted element
// kernel (whose single coefficient group yields the paper's one-multiply
// form) specialized by plain DBrew versus the same code after the LLVM
// backend.
func (w *Workload) Figure8Listings() (dbrewLst, llvmLst []string, err error) {
	r := dbrew.NewRewriter(w.Mem, w.Corpus.SortedElem, kernels.ElemSig)
	r.SetParPtr(0, w.SortedAddr, w.SortedSize)
	addr, err := r.Rewrite()
	if err != nil {
		return nil, nil, err
	}
	if r.Stats.Failed {
		return nil, nil, fmt.Errorf("dbrew failed: %v", r.Stats.Err)
	}
	dbrewLst, err = dbrew.Listing(w.Mem, addr, r.Stats.CodeSize)
	if err != nil {
		return nil, nil, err
	}

	l := lift.New(w.Mem, lift.DefaultOptions())
	f, err := l.LiftFunc(addr, "fig8", kernels.ElemSig)
	if err != nil {
		return nil, nil, err
	}
	opt.Optimize(f, opt.O3())
	comp := jit.NewCompiler(w.Mem)
	jaddr, err := comp.CompileModule(l.Module, f.Nam)
	if err != nil {
		return nil, nil, err
	}
	llvmLst, err = dbrew.Listing(w.Mem, jaddr, comp.Sizes[jaddr])
	return dbrewLst, llvmLst, err
}

// Figure6IR regenerates the Figure 6 comparison: the max(a, b) kernel lifted
// with and without the flag cache, after -O3.
func (w *Workload) Figure6IR() (withCache, withoutCache string, err error) {
	mk := func(fc bool) (string, error) {
		lo := lift.DefaultOptions()
		lo.FlagCache = fc
		l := lift.New(w.Mem, lo)
		name := "max_fc"
		if !fc {
			name = "max_nofc"
		}
		f, err := l.LiftFunc(w.Corpus.MaxFunc, name, kernels.MaxSig)
		if err != nil {
			return "", err
		}
		opt.Optimize(f, opt.O3())
		return ir.FormatFunc(f), nil
	}
	if withCache, err = mk(true); err != nil {
		return
	}
	withoutCache, err = mk(false)
	return
}

// AblationRow is one configuration of the design-choice ablations.
type AblationRow struct {
	Name     string
	CycPerEl float64
	Delta    float64 // relative to the baseline configuration
}

// RunAblations measures the lifter design choices the paper calls out
// (Section III): flag cache, facet cache, and GEP-based addressing, each
// disabled in isolation on the LLVM identity transformation of the flat
// element kernel.
func (w *Workload) RunAblations(rows int) ([]AblationRow, error) {
	type cfg struct {
		name string
		mod  func(o *lift.Options)
	}
	cfgs := []cfg{
		{"baseline (all on)", func(o *lift.Options) {}},
		{"no flag cache", func(o *lift.Options) { o.FlagCache = false }},
		{"no facet cache", func(o *lift.Options) { o.FacetCache = false }},
		{"inttoptr addressing (no GEP)", func(o *lift.Options) { o.UseGEP = false }},
		{"all off", func(o *lift.Options) { o.FlagCache = false; o.FacetCache = false; o.UseGEP = false }},
	}
	var rowsOut []AblationRow
	var base float64
	for i, c := range cfgs {
		lo := lift.DefaultOptions()
		c.mod(&lo)
		v, err := w.Prepare(Element, Flat, LLVM, Options{LiftOpts: &lo})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		m, err := w.MeasureRows(v, rows)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if i == 0 {
			base = m.CyclesPerElem
		}
		rowsOut = append(rowsOut, AblationRow{
			Name:     c.name,
			CycPerEl: m.CyclesPerElem,
			Delta:    m.CyclesPerElem/base - 1,
		})
	}
	return rowsOut, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Lifter design-choice ablations (flat element kernel, LLVM identity mode)\n")
	fmt.Fprintf(&b, "%-30s %10s %8s\n", "configuration", "cyc/elem", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %10.2f %+7.1f%%\n", r.Name, r.CycPerEl, 100*r.Delta)
	}
	return b.String()
}

// PassAblationRow measures removing one optimization pass family from the
// pipeline — the study the paper's conclusion names as the motivation for
// the LLVM backend ("understand which optimization passes are essential").
type PassAblationRow struct {
	Pass     string
	CycPerEl float64
	Delta    float64
}

// passAblationConfigs are the pipeline variants of the essential-passes
// study.
func passAblationConfigs() []struct {
	name string
	o    Options
} {
	return []struct {
		name string
		o    Options
	}{
		{"full -O3 pipeline", Options{}},
		{"no instcombine/folding", Options{PipelineMod: func(c *opt.Config) { c.NoInstCombine = true }}},
		{"no fast-math", Options{NoFastMath: true}},
		{"no CSE/GVN", Options{PipelineMod: func(c *opt.Config) { c.NoCSE = true }}},
		{"no inlining", Options{PipelineMod: func(c *opt.Config) { c.NoInline = true }}},
		{"no loop unrolling", Options{PipelineMod: func(c *opt.Config) { c.NoUnroll = true }}},
		{"no mem2reg/SROA", Options{PipelineMod: func(c *opt.Config) { c.NoMem2Reg = true }}},
		{"no optimization (-O0)", Options{OptLevel: -1}},
	}
}

// RunPassAblation measures the flat element kernel with individual pipeline
// features disabled, in the given mode (DBrewLLVM answers "what does DBrew
// output need?", LLVMFix answers "what does IR-level specialization need?").
func (w *Workload) RunPassAblation(rows int, mode Mode) ([]PassAblationRow, error) {
	var out []PassAblationRow
	var base float64
	for i, c := range passAblationConfigs() {
		v, err := w.Prepare(Element, Flat, mode, c.o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		m, err := w.MeasureRows(v, rows)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if i == 0 {
			base = m.CyclesPerElem
		}
		out = append(out, PassAblationRow{Pass: c.name, CycPerEl: m.CyclesPerElem, Delta: m.CyclesPerElem/base - 1})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].CycPerEl < out[j].CycPerEl })
	return out, nil
}

// FormatPassAblation renders the pass ablation.
func FormatPassAblation(rows []PassAblationRow, mode Mode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline ablations (flat element kernel, %v mode)\n", mode)
	fmt.Fprintf(&b, "%-30s %10s %8s\n", "pipeline", "cyc/elem", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %10.2f %+7.1f%%\n", r.Pass, r.CycPerEl, 100*r.Delta)
	}
	return b.String()
}

// avoid unused import when abi is only used in signatures elsewhere.
var _ = abi.ClassInt

// Figure7Layouts renders the two serialized data-structure layouts of
// Figure 7 (the generic flat SortedStencil-free form and the
// coefficient-sorted form with its group pointer table) as annotated hex
// dumps, so the memory images the kernels traverse can be inspected.
func (w *Workload) Figure7Layouts() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "flat layout (StencilPoint[%d] with factors) at %#x, %d bytes:\n",
		len(w.Stencil.Points), w.FlatAddr, w.FlatSize)
	ps, err := w.Mem.ReadU(w.FlatAddr, 4)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  +0x00  points = %d\n", ps)
	for i := 0; i < int(ps); i++ {
		off := uint64(8 + 16*i)
		f, _ := w.Mem.ReadFloat64(w.FlatAddr + off)
		dx, _ := w.Mem.ReadU(w.FlatAddr+off+8, 4)
		dy, _ := w.Mem.ReadU(w.FlatAddr+off+12, 4)
		fmt.Fprintf(&b, "  +%#04x  {f: %-5g dx: %-3d dy: %-3d}\n",
			off, f, int32(dx), int32(dy))
	}

	fmt.Fprintf(&b, "\nsorted layout (SortedStencil with group pointers) at %#x, %d bytes (header %d):\n",
		w.SortedAddr, w.SortedSize, w.SortedHeader)
	gs, err := w.Mem.ReadU(w.SortedAddr, 4)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  +0x00  groups = %d\n", gs)
	for g := 0; g < int(gs); g++ {
		p, _ := w.Mem.ReadU(w.SortedAddr+8+uint64(8*g), 8)
		fmt.Fprintf(&b, "  +%#04x  group[%d] -> %#x\n", 8+8*g, g, p)
		f, _ := w.Mem.ReadFloat64(p)
		np, _ := w.Mem.ReadU(p+8, 4)
		fmt.Fprintf(&b, "          .factor = %g, .points = %d\n", f, np)
		for i := 0; i < int(np); i++ {
			dx, _ := w.Mem.ReadU(p+16+uint64(8*i), 4)
			dy, _ := w.Mem.ReadU(p+16+uint64(8*i)+4, 4)
			fmt.Fprintf(&b, "          point[%d] = {dx: %-3d dy: %-3d}\n", i, int32(dx), int32(dy))
		}
	}
	return b.String(), nil
}
