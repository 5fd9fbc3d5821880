package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/emu"
	"repro/internal/x86/asm"
)

// runRow is one guest program of the execution workloads. One operation is
// one call of op on a machine: a sweep big enough that timer cost vanishes.
type runRow struct {
	name string
	mem  *emu.Memory
	// prep resets outputs and check compares them with the row's oracle;
	// both run outside the timed section.
	prep  func()
	op    func(m *emu.Machine) error
	check func() error
	// m is the row's machine on the default engine (blocks + native traces).
	// It lives for the whole run: translations and traces are made once, in
	// the warm-up pass, and the measured phase is the steady state.
	m *emu.Machine
}

// runGuests is run_loops or run_calls: compiles happen in set-up, the
// measured phase only executes guest code.
type runGuests struct {
	e    *env
	rows []*runRow
	st   static
	// of the traced phase
	roundInsts  uint64
	insts       uint64
	before      emu.TraceStats
	beforeKnown bool
}

func (r *runGuests) close() {}

func (r *runGuests) static() static { return r.st }

func (r *runGuests) measure(rec *recorder, tr *tracer, d time.Duration) {
	if !r.beforeKnown {
		r.before, r.beforeKnown = emu.ReadTraceStats(), true
	}
	r.e.rounds(d, rec, func(round int) {
		var roundInsts uint64
		for _, i := range r.e.shuffled(len(r.rows), round) {
			row := r.rows[i]
			row.prep()
			row.m.ResetStats()
			ctx := tr.newOp(row.name)
			var err error
			sec := r.e.timed(func() { ctx.span("emu.call", func() { err = row.op(row.m) }) })
			if err == nil {
				err = row.check()
			}
			if rec != nil {
				rec.op(row.name, sec, err)
			}
			roundInsts += row.m.InstCount
		}
		if tr != nil {
			r.insts += roundInsts
			r.roundInsts = roundInsts
		}
	})
}

// engines are the four ways the emulator can run the same guest code.
var engines = []struct {
	name string
	set  func(*emu.Machine)
}{
	{"interp", func(m *emu.Machine) { m.Interp = true }},
	{"blocks", func(m *emu.Machine) { m.Traces = false }},
	{"tracevm", func(m *emu.Machine) { m.TraceOpts.NoNativeTraces = true }},
	{"traces", func(*emu.Machine) {}},
}

func (r *runGuests) layers(m layerMetrics, tr *tracer) {
	calls := tr.stats()["emu.call"]
	if calls != nil && calls.total > 0 {
		m.set("emu.minst_per_s", float64(r.insts)/calls.total/1e6)
	}
	m.set("emu.insts_retired", float64(r.roundInsts))
	setTraceCounters(m, r.before, emu.ReadTraceStats())

	// The same operations on each engine, a fresh machine per (row, engine),
	// two warm-up operations so translation and trace compilation are done.
	// Rates are the geometric mean over rows; the engines must retire the
	// same number of instructions or the comparison is void.
	for _, eng := range engines {
		var rates []float64
		for _, row := range r.rows {
			mach := emu.NewMachine(row.mem)
			eng.set(mach)
			var times []float64
			for i := 0; i < 5; i++ {
				row.prep()
				mach.ResetStats()
				var err error
				sec := r.e.timed(func() { err = row.op(mach) })
				if err != nil || mach.InstCount != row.m.InstCount {
					panic(fmt.Sprintf("%s on %s: err %v, %d instructions, default engine retired %d",
						row.name, eng.name, err, mach.InstCount, row.m.InstCount))
				}
				if i >= 2 {
					times = append(times, sec)
				}
			}
			rates = append(rates, float64(mach.InstCount)/median(times)/1e6)
		}
		m.set("emu."+eng.name+"_minst_per_s", geomean(rates))
	}
}

// kernelRow sweeps a Sec. VI kernel over the first rows interior rows: entry
// is a line kernel, or the per-element driver around an element kernel.
func kernelRow(name string, im *image, entry, stencilAddr uint64, rows int) *runRow {
	n := im.w.SZ - 2
	return &runRow{
		name: name, mem: im.eng.Mem, m: emu.NewMachine(im.eng.Mem),
		prep: im.clearOut,
		op: func(m *emu.Machine) error {
			for row := 1; row <= rows; row++ {
				args := im.kernelArgs(stencilAddr, row, true, false)
				if _, err := m.Call(entry, emu.CallArgs{Ints: args}, 0); err != nil {
					return err
				}
			}
			return nil
		},
		check: func() error {
			for row := 1; row <= rows; row++ {
				if err := im.checkCells(row, n); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// cyclesOf runs one operation of row on a scratch machine, checks it, and
// returns its modelled cycles.
func cyclesOf(row *runRow) (float64, error) {
	m := emu.NewMachine(row.mem)
	row.prep()
	if err := row.op(m); err != nil {
		return 0, fmt.Errorf("%s: %w", row.name, err)
	}
	if err := row.check(); err != nil {
		return 0, fmt.Errorf("%s: %w", row.name, err)
	}
	return m.Cycles, nil
}

// kernelRows compiles the dbrew_llvm variant of each structure's kernel and
// returns native and specialized rows. wrap turns a kernel entry into the
// entry the sweep calls (identity for line kernels, the element driver for
// element kernels).
func kernelRows(im *image, kind bench.Kind, rows int, wrap func(uint64) (uint64, error)) ([]*runRow, static, error) {
	var out []*runRow
	var st static
	var ratios []float64
	for _, s := range structures {
		t := im.target(kind, s)
		c, err := routeRewriter(t)
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", t.row, err)
		}
		st.codeBytes += c.bytes
		var cyc [2]float64
		for i, v := range []struct {
			mode  string
			entry uint64
		}{{"native", t.entry}, {"dbrew_llvm", c.entry}} {
			entry, err := wrap(v.entry)
			if err != nil {
				return nil, st, err
			}
			row := kernelRow(t.row+"/"+v.mode, im, entry, t.fix.addr, rows)
			if cyc[i], err = cyclesOf(row); err != nil {
				return nil, st, err
			}
			out = append(out, row)
		}
		ratios = append(ratios, cyc[1]/cyc[0])
	}
	st.cyclesRatio = geomean(ratios)
	return out, st, nil
}

// guestRow runs a stand-alone loop kernel calls times per operation.
func guestRow(name string, build func(*asm.Builder), n uint64, calls int) (*runRow, error) {
	g, err := newGuest(build, n)
	if err != nil {
		return nil, err
	}
	want, err := g.reference()
	if err != nil {
		return nil, err
	}
	var got outcome
	return &runRow{
		name: name, mem: g.mem, m: emu.NewMachine(g.mem),
		prep: func() {},
		op: func(m *emu.Machine) error {
			for i := 0; i < calls; i++ {
				var err error
				if got, err = g.call(m); err != nil {
					return err
				}
			}
			return nil
		},
		check: func() error {
			if got.ret != want.ret || !bytes.Equal(got.scratch, want.scratch) {
				return fmt.Errorf("result %#x, interpreter says %#x (or buffer differs)", got.ret, want.ret)
			}
			return nil
		},
	}, nil
}

// setUpRunLoops: the line kernels (native and dbrew_llvm, three structures,
// side 129) over the interior rows, the 18-instruction ALU loop and the
// nested-loop linked kernel.
func setUpRunLoops(e *env) (instance, error) {
	side := e.pick(129, 33)
	im, err := newImage(side, e.seed)
	if err != nil {
		return nil, err
	}
	rows, st, err := kernelRows(im, bench.Line, side-2, func(entry uint64) (uint64, error) { return entry, nil })
	if err != nil {
		return nil, err
	}
	alu, err := guestRow("alu_loop", aluLoop, uint64(e.pick(4096, 512)), 4)
	if err != nil {
		return nil, err
	}
	linked, err := guestRow("linked_loops", linkedLoops, uint64(e.pick(64, 32)), 8)
	if err != nil {
		return nil, err
	}
	return &runGuests{e: e, rows: append(rows, alu, linked), st: st}, nil
}

// setUpRunCalls: the element kernels through the per-element call driver
// (native and dbrew_llvm), and the unspecialized bytecode-VM interpreter of
// the Futamura subject on its input sweep plus inputs drawn from the seed.
func setUpRunCalls(e *env) (instance, error) {
	side := e.pick(129, 33)
	im, err := newImage(side, e.seed)
	if err != nil {
		return nil, err
	}
	rows, st, err := kernelRows(im, bench.Element, e.pick(16, 4), func(entry uint64) (uint64, error) {
		return buildElemDriver(im.eng.Mem, entry)
	})
	if err != nil {
		return nil, err
	}
	fut, err := futamuraRow(e)
	if err != nil {
		return nil, err
	}
	return &runGuests{e: e, rows: append(rows, fut), st: st}, nil
}

func futamuraRow(e *env) (*runRow, error) {
	img, err := corpus.FutamuraSubject().Build()
	if err != nil {
		return nil, err
	}
	inputs := append([][2]uint64(nil), img.Inputs...)
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < 16; i++ {
		inputs = append(inputs, [2]uint64{rng.Uint64(), rng.Uint64()})
	}
	scratch, err := img.Mem.Bytes(img.Scratch, 256)
	if err != nil {
		return nil, err
	}
	run := func(m *emu.Machine, out []outcome) error {
		for i, in := range inputs {
			for j := range scratch {
				scratch[j] = 0
			}
			ret, err := m.Call(img.Entry, emu.CallArgs{Ints: []uint64{in[0], in[1], img.Scratch}}, 5_000_000)
			if err != nil {
				return err
			}
			out[i].ret = ret
			copy(out[i].scratch, scratch)
		}
		return nil
	}
	alloc := func() []outcome {
		out := make([]outcome, len(inputs))
		for i := range out {
			out[i].scratch = make([]byte, len(scratch))
		}
		return out
	}
	want, got := alloc(), alloc()
	ref := emu.NewMachine(img.Mem)
	ref.Interp = true
	if err := run(ref, want); err != nil {
		return nil, fmt.Errorf("futamura reference: %w", err)
	}
	return &runRow{
		name: "futamura_interp", mem: img.Mem, m: emu.NewMachine(img.Mem),
		prep: func() {},
		op:   func(m *emu.Machine) error { return run(m, got) },
		check: func() error {
			for i := range want {
				if got[i].ret != want[i].ret || !bytes.Equal(got[i].scratch, want[i].scratch) {
					return fmt.Errorf("input %d: result %#x, interpreter says %#x (or scratch differs)", i, got[i].ret, want[i].ret)
				}
			}
			return nil
		},
	}, nil
}
