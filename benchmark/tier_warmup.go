package main

import (
	"fmt"
	"time"

	dbrewllvm "repro"
	"repro/internal/bench"
)

const (
	tier1Calls  = 16
	tier2Calls  = 128
	warmupCalls = 2000
)

// tierWarmup is the paper's use case: a function is registered, called 2000
// times, and the engine pays for compilation only as the calls prove it hot —
// tier-0 interpretation, a fastpath stall at call 16, a DBrew+O3 stall at
// call 128, then steady tier-2 execution. One operation is one such warm-up
// of one Sec. VI kernel on a fresh engine, timed from registration to the
// last return.
type tierWarmup struct {
	e       *env
	side    int
	calls   int
	st      static
	stKnown bool
	promos  float64
	// of the traced phase, by tier and by row: per-call latencies, and the
	// latencies of the calls that crossed a threshold
	perTier [3]map[string][]float64
	stalls  [3]map[string][]float64
}

func setUpTierWarmup(e *env) (instance, error) {
	t := &tierWarmup{e: e, side: 33, calls: e.pick(warmupCalls, 300)}
	for i := range t.perTier {
		t.perTier[i], t.stalls[i] = map[string][]float64{}, map[string][]float64{}
	}
	// Building the image is all the set-up there is; do it once so a broken
	// kernel corpus fails here and not inside the measured phase.
	_, err := newImage(t.side, e.seed)
	return t, err
}

func (t *tierWarmup) close() {}

func (t *tierWarmup) static() static { return t.st }

// warm runs one operation. Promotions are synchronous, so the call that
// crosses a threshold pays the compile and the sequence is deterministic.
func (t *tierWarmup) warm(kind bench.Kind, s bench.Structure, ctx *opCtx) (sec float64, bytes int, ratio float64, err error) {
	im, err := newImage(t.side, t.e.seed)
	if err != nil {
		return 0, 0, 0, err
	}
	tg := im.target(kind, s)
	eng := im.eng
	eng.EnableTiering(dbrewllvm.TierConfig{Tier1Calls: tier1Calls, Tier2Calls: tier2Calls, Synchronous: true})
	if ctx != nil {
		eng.EnableTracing() // the promotions' own stage spans, read from outside
	}
	n := t.side - 2
	cells := n * n
	if kind == bench.Line {
		cells = n
	}
	args := make([][]uint64, t.calls)
	for i := range args {
		if kind == bench.Line {
			args[i] = im.kernelArgs(tg.fix.addr, 1+i%n, true, false)
		} else {
			args[i] = []uint64{tg.fix.addr, im.w.M1.Region.Start, im.w.M2.Region.Start, uint64((1+(i/n)%n)*t.side + 1 + i%n)}
		}
	}
	im.clearOut()

	var f *dbrewllvm.TieredFunc
	var callErr error
	sec = t.e.timed(func() {
		ctx.span("tier.warmup", func() {
			// The tiers run the code as the compiler produced it: the call-based
			// line kernels do not lift without their callee declared, which
			// Rewriter.Tiered has no way to do.
			r := dbrewllvm.NewRewriter(eng, tg.entry, tg.sig)
			r.SetParPtr(0, tg.fix.addr, tg.fix.size)
			if f, callErr = r.Tiered(tg.row); callErr != nil {
				return
			}
			for i := 0; i < t.calls && callErr == nil; i++ {
				if ctx == nil {
					_, callErr = f.Call(args[i], nil)
					continue
				}
				// Every call is timed; only the two that cross a threshold
				// become spans, with the promotion's own stage spans below.
				level := f.Level()
				t0 := time.Now()
				_, callErr = f.Call(args[i], nil)
				t1 := time.Now()
				if after := f.Level(); after != level {
					t.stalls[after][ctx.row] = append(t.stalls[after][ctx.row], t1.Sub(t0).Seconds())
					outer := ctx.parent
					ctx.parent = ctx.t.add("tier.promote_call", ctx.row, outer, ctx.op, t0, t1)
					ctx.importTrace(eng.LastTrace().Spans())
					ctx.parent = outer
				} else {
					t.perTier[level][ctx.row] = append(t.perTier[level][ctx.row], t1.Sub(t0).Seconds())
				}
			}
		})
	})
	if callErr != nil {
		return sec, 0, 0, callErr
	}

	// Oracle: every cell the calls stored, against the Go reference.
	touched := t.calls
	if touched > cells {
		touched = cells
	}
	rows := touched
	if kind == bench.Element {
		rows = (touched + n - 1) / n
	}
	for row := 1; row <= rows; row++ {
		cols := n
		if kind == bench.Element && row == rows && touched%n != 0 {
			cols = touched % n
		}
		if err := im.checkCells(row, cols); err != nil {
			return sec, 0, 0, err
		}
	}
	st := f.Stats()
	if st.Level != dbrewllvm.Tier2 || st.Promotions[dbrewllvm.Tier1] != 1 || st.Promotions[dbrewllvm.Tier2] != 1 {
		return sec, 0, 0, fmt.Errorf("ended at %v after promotions %v, want one promotion to each of tier 1 and tier 2", st.Level, st.Promotions)
	}
	t.promos = float64(st.Promotions[dbrewllvm.Tier1] + st.Promotions[dbrewllvm.Tier2])

	// Tier 2 ÷ tier 0 modelled cycles per call, on the first call's inputs.
	_, c2, _, err := eng.Measure(f.Entry(), args[0], nil)
	if err != nil {
		return sec, 0, 0, err
	}
	_, c0, _, err := eng.Measure(tg.entry, args[0], nil)
	return sec, st.CodeSize, c2 / c0, err
}

func (t *tierWarmup) measure(rec *recorder, tr *tracer, d time.Duration) {
	type fn struct {
		kind bench.Kind
		s    bench.Structure
	}
	var fns []fn
	for _, kind := range kinds {
		for _, s := range structures {
			fns = append(fns, fn{kind, s})
		}
	}
	t.e.rounds(d, rec, func(round int) {
		var ratios []float64
		bytes := 0
		for _, i := range t.e.shuffled(len(fns), round) {
			row := fmt.Sprintf("%s_%s", structName[fns[i].s], fns[i].kind)
			sec, b, ratio, err := t.warm(fns[i].kind, fns[i].s, tr.newOp(row))
			if rec != nil {
				rec.op(row, sec, err)
			}
			bytes += b
			ratios = append(ratios, ratio)
		}
		if !t.stKnown {
			t.st, t.stKnown = static{codeBytes: bytes, cyclesRatio: geomean(ratios)}, true
		}
	})
}

func (t *tierWarmup) layers(m layerMetrics, tr *tracer) {
	setPipelineLayers(m, tr.stats())
	m.set("tier.promotions", t.promos)
	// Element and line kernels differ by the row length in cost per call, so
	// each is the geometric mean over the six functions of the row's median.
	speed := t.e.cal.speed()
	rows := func(perRow map[string][]float64) float64 { return rowGeomean(perRow) * speed }
	m.set("tier.t1_stall_us", rows(t.stalls[1])*1e6)
	m.set("tier.t2_stall_us", rows(t.stalls[2])*1e6)
	m.set("tier.t0_ns_per_call", rows(t.perTier[0])*1e9)
	m.set("tier.t1_ns_per_call", rows(t.perTier[1])*1e9)
	m.set("tier.t2_ns_per_call", rows(t.perTier[2])*1e9)
}
