package main

import "time"

// compileRoutes is the paper's Fig. 10 — transformation time of the Sec. VI
// kernels — widened by a seeded draw of short branchy functions, where lifting
// rather than optimizing dominates. One operation is one cold compile; caches
// are off and nothing executes inside a timed section. Every compiled function
// is then run against its oracle.
//
// The five routes are three workloads, so that each route's time is a bounded
// end-to-end number of its own or shares one with a single neighbour:
// compile_baseline (dbrew, fastpath: the routes without an optimizer),
// compile_llvm (llvm, llvm_fix: IR-level routes without DBrew) and
// compile_dbrew_llvm (the root Rewriter, the paper's headline route).
type compileRoutes struct {
	e      *env
	routes []string
	progs  []*program
	side   int
	// st is filled by the first pass: sizes and modelled cycles of the Sec. VI
	// rows repeat exactly, so one pass decides them.
	st      static
	stKnown bool
	// counts of the first traced pass, and instructions the decode sweeps saw.
	counts  *layerCounts
	decodes int
}

func setUpCompile(routes ...string) func(e *env) (instance, error) {
	return func(e *env) (instance, error) {
		progs, err := programSet(e.pick(48, 6), e.seed)
		if err != nil {
			return nil, err
		}
		return &compileRoutes{e: e, routes: routes, progs: progs, side: 65}, nil
	}
}

func (c *compileRoutes) close() {}

// job is one (program, route) row of a pass.
type job struct {
	t     *target
	route string
	// verify runs the compiled code against the row's oracle. For a Sec. VI
	// row it returns the modelled cycles of the compiled and the original code.
	verify func(out compiled) (spec, orig float64, err error)
}

// jobs builds fresh address spaces — so the emulated memory never grows
// across passes — and lists the pass's jobs. This happens outside any timed
// section.
func (c *compileRoutes) jobs(round int) ([]job, error) {
	im, err := newImage(c.side, c.e.seed)
	if err != nil {
		return nil, err
	}
	row := 1 + round%(c.side-2)
	var jobs []job
	for _, kind := range kinds {
		for _, s := range structures {
			kind, t := kind, im.target(kind, s)
			origCycles := -1.0
			for _, route := range c.routes {
				jobs = append(jobs, job{t: t, route: route, verify: func(out compiled) (float64, float64, error) {
					cyc, err := im.runKernel(kind, t, out, row)
					if err != nil {
						return 0, 0, err
					}
					if origCycles < 0 {
						origCycles, err = im.runKernel(kind, t, compiled{entry: t.entry}, row)
					}
					return cyc, origCycles, err
				}})
			}
		}
	}
	for _, p := range c.progs {
		pl, err := p.place()
		if err != nil {
			return nil, err
		}
		t := pl.target()
		for _, route := range c.routes {
			if route == "llvm_fix" {
				continue // nothing is fixed in the generated functions
			}
			jobs = append(jobs, job{t: t, route: route, verify: func(out compiled) (float64, float64, error) {
				return 0, 0, pl.check(out.entry)
			}})
		}
	}
	return jobs, nil
}

func (c *compileRoutes) measure(rec *recorder, tr *tracer, d time.Duration) {
	c.e.rounds(d, rec, func(round int) {
		jobs, err := c.jobs(round)
		if err != nil {
			if rec != nil {
				rec.op("pass", 0, err)
			}
			return
		}
		var cnt *layerCounts
		if tr != nil && c.counts == nil {
			cnt = &layerCounts{}
			c.counts = cnt
		}
		var ratios []float64
		bytes := 0
		for _, i := range c.e.shuffled(len(jobs), round) {
			j := jobs[i]
			row := j.t.row + "/" + j.route
			ctx := tr.newOp(row)
			var out compiled
			var err error
			sec := c.e.timed(func() {
				ctx.span("engine.compile_"+j.route, func() { out, err = compile(j.route, j.t, ctx, cnt) })
			})
			var spec, orig float64
			if err == nil {
				spec, orig, err = j.verify(out)
			}
			if rec != nil {
				rec.groups[row] = j.route
				rec.op(row, sec, err)
			}
			if orig > 0 { // a Sec. VI row: the same code whatever the seed
				bytes += out.bytes
				ratios = append(ratios, spec/orig)
			}
			if tr != nil {
				c.probe(j, tr, cnt)
			}
		}
		if !c.stKnown {
			c.st, c.stKnown = static{codeBytes: bytes, cyclesRatio: geomean(ratios)}, true
		}
	})
}

// probe adds, in the traced run, what the routes do not time by themselves:
// once per program the decode sweep of the function — the x86 layer on its
// own — and for a dbrew_llvm row the single Rewriter.Rewrite call the staged
// spans are checked against.
func (c *compileRoutes) probe(j job, tr *tracer, cnt *layerCounts) {
	if j.route == c.routes[0] {
		var n int
		tr.newOp(j.t.row).span("x86.decode", func() { n, _ = decodeSweep(j.t.eng.Mem, j.t.entry) })
		if cnt != nil {
			cnt.x86Insts += n
		}
		c.decodes += n
	}
	if j.route == "dbrew_llvm" {
		// An error here is the row's error too, and that one is counted.
		tr.newOp(j.t.row).span("engine.rewrite", func() { _, _ = routeRewriter(j.t) })
	}
}

func (c *compileRoutes) static() static { return c.st }

func (c *compileRoutes) layers(m layerMetrics, tr *tracer) {
	st := tr.stats()
	setPipelineLayers(m, st)
	for _, route := range c.routes {
		m.set("engine.compile_us_"+route, st["engine.compile_"+route].rowGeomean()*1e6)
	}
	whole := st["engine.rewrite"]
	m.set("engine.rewrite_us", whole.rowGeomean()*1e6)
	// Σ stage spans ÷ whole Rewrite, per dbrew_llvm row: the staged drive
	// must account for the single call within 10 %.
	var ratios []float64
	if whole != nil {
		for row, times := range whole.perRow {
			var stages float64
			for _, name := range []string{"dbrew.rewrite", "lift.func", "opt.optimize", "jit.compile"} {
				stages += median(st[name].row(row + "/dbrew_llvm"))
			}
			ratios = append(ratios, stages/median(times))
		}
	}
	m.set("engine.stage_sum_ratio", geomean(ratios))
	if d := st["x86.decode"]; d != nil && c.decodes > 0 {
		m.set("x86.decode_ns_per_inst", d.total*1e9/float64(c.decodes))
	}
	if cnt := c.counts; cnt != nil {
		m.set("x86.insts_decoded", float64(cnt.x86Insts))
		m.set("dbrew.insts_emitted", float64(cnt.dbrewEmitted))
		m.set("dbrew.insts_eliminated", float64(cnt.dbrewEliminated))
		m.set("dbrew.fallbacks", float64(cnt.dbrewFell))
		m.set("lift.ir_insts", float64(cnt.liftIRInsts))
		m.set("opt.ir_insts_after", float64(cnt.optAfter))
		m.set("opt.rounds", float64(cnt.optRounds))
		m.set("opt.inlined", float64(cnt.optInlined))
		m.set("opt.unrolled", float64(cnt.optUnrolld))
		m.set("jit.code_bytes", float64(cnt.jitBytes))
		if cnt.fpCompiles > 0 {
			m.set("fastpath.copy_ratio", float64(cnt.fpCopies)/float64(cnt.fpCompiles))
		}
	}
}
