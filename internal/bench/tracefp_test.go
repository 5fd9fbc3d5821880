package bench

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/emu"
)

// The Sec. VI line kernels on the four execution engines. Since the trace
// tier learned scalar SSE2 the stencil loops run as compiled traces, so the
// house invariant — bit-identical GPR, XMM (both lanes), flags, memory,
// Cycles, InstCount and error text against the interpreter — is asserted
// here on the paper's own subjects, and the engagement test below pins that
// they really are traced. The test names carry TestTraceNative so the
// battery runs under -race in `make race-trace-native`.

// traceEngines lists the interpreter (the reference) first.
var traceEngines = []struct {
	name string
	set  func(*emu.Machine)
}{
	{"interp", func(m *emu.Machine) { m.Interp = true }},
	{"blocks", func(m *emu.Machine) { m.Traces = false }},
	{"tracevm", func(m *emu.Machine) {
		m.TraceOpts = emu.TraceOptions{HotThreshold: 2, O3Threshold: 4, NoNativeTraces: true}
	}},
	{"native", func(m *emu.Machine) {
		m.TraceOpts = emu.TraceOptions{HotThreshold: 2, O3Threshold: 4}
	}},
}

// lineVariants are the code variants of the battery: the compiler's kernel,
// the paper's headline route and the IR-level parameter fixation.
var lineVariants = []Mode{Native, DBrewLLVM, LLVMFix}

type machineState struct {
	gpr       [16]uint64
	xmm       [16]emu.XMMReg
	flags     emu.Flags
	rip       uint64
	cycles    float64
	instCount uint64
	errMsg    string
	out       string
}

func (a machineState) diff(b machineState) string {
	switch {
	case a.errMsg != b.errMsg:
		return fmt.Sprintf("error %q vs %q", a.errMsg, b.errMsg)
	case a.gpr != b.gpr:
		return fmt.Sprintf("GPR %x vs %x", a.gpr, b.gpr)
	case a.xmm != b.xmm:
		return fmt.Sprintf("XMM %x vs %x", a.xmm, b.xmm)
	case a.flags != b.flags:
		return fmt.Sprintf("flags %+v vs %+v", a.flags, b.flags)
	case a.rip != b.rip:
		return fmt.Sprintf("RIP %#x vs %#x", a.rip, b.rip)
	case a.instCount != b.instCount:
		return fmt.Sprintf("InstCount %d vs %d", a.instCount, b.instCount)
	case a.cycles != b.cycles:
		return fmt.Sprintf("Cycles %v vs %v", a.cycles, b.cycles)
	case a.out != b.out:
		return "output matrix differs"
	}
	return ""
}

// lineArgs are the call arguments of a line-kernel variant for one row.
func lineArgs(w *Workload, v *Variant, row int) []uint64 {
	idx0 := uint64(row*w.SZ + 1)
	n := uint64(w.SZ - 2)
	if v.DropStencilArg {
		return []uint64{w.M1.Region.Start, w.M2.Region.Start, idx0, n}
	}
	return []uint64{v.StencilAddr, w.M1.Region.Start, w.M2.Region.Start, idx0, n}
}

// sweepLines runs the variant over every interior row on m, zeroing the
// output first, with the given per-call budget (0 = none); it stops at the
// first error, as a caller would.
func sweepLines(w *Workload, v *Variant, m *emu.Machine, budget uint64) machineState {
	for i := range w.M2.Region.Data {
		w.M2.Region.Data[i] = 0
	}
	m.Reset()
	var err error
	for row := 1; row < w.SZ-1 && err == nil; row++ {
		_, err = m.Call(v.Entry, emu.CallArgs{Ints: lineArgs(w, v, row)}, budget)
	}
	st := machineState{gpr: m.GPR, xmm: m.XMM, flags: m.Flags, rip: m.RIP,
		cycles: m.Cycles, instCount: m.InstCount, out: string(w.M2.Region.Data)}
	if err != nil {
		st.errMsg = err.Error()
	}
	return st
}

func prepareLines(t *testing.T, w *Workload) map[string]*Variant {
	t.Helper()
	vs := map[string]*Variant{}
	for _, s := range AllStructures {
		for _, mode := range lineVariants {
			v, err := w.Prepare(Line, s, mode, Options{})
			if err != nil {
				t.Fatalf("%v/%v: prepare: %v", s, mode, err)
			}
			vs[fmt.Sprintf("%v/%v", s, mode)] = v
		}
	}
	return vs
}

// TestTraceNativeFPLineKernels sweeps all nine line-kernel variants over the
// whole matrix on every engine — twice per machine, so the second sweep runs
// on installed (and O3-recompiled) traces from its first instruction — and
// then cuts one line call off at every possible instruction budget, which
// lands cutoffs on every FP instruction of every compiled trace.
func TestTraceNativeFPLineKernels(t *testing.T) {
	w, err := NewWorkload(17)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range prepareLines(t, w) {
		machines := make([]*emu.Machine, len(traceEngines))
		var ref machineState
		for i, e := range traceEngines {
			machines[i] = emu.NewMachine(w.Mem)
			e.set(machines[i])
			sweepLines(w, v, machines[i], 0)
			got := sweepLines(w, v, machines[i], 0)
			if i == 0 {
				ref = got
				if ref.errMsg != "" {
					t.Fatalf("%s: reference run failed: %s", name, ref.errMsg)
				}
			} else if d := ref.diff(got); d != "" {
				t.Errorf("%s on %s: %s", name, e.name, d)
			}
		}
		// Budget sweep on the warmed machines: the first row's call is cut
		// off after 1, 2, ... instructions.
		perLine := ref.instCount/uint64(w.SZ-2) + 2
		for budget := uint64(1); budget <= perLine; budget++ {
			var want machineState
			for i, e := range traceEngines {
				got := sweepLines(w, v, machines[i], budget)
				if i == 0 {
					want = got
				} else if d := want.diff(got); d != "" {
					t.Fatalf("%s on %s, budget %d: %s", name, e.name, budget, d)
				}
			}
		}
	}
}

// TestTraceNativeFPStencilKernelsEngage pins the point of the SSE2 subset:
// every line kernel — the structure-walking originals, all specialized
// variants, and the packed loops of direct_line (GCC's vectorized kernel and
// its LLVM-fix re-emission) — runs as at least one native trace that stays in
// its loop (more than 50 iterations per run in steady state: the structure
// walkers' short inner loops are unrolled along one trace of the element
// loop, and the packed loops' penalized accesses are charged in the trace).
func TestTraceNativeFPStencilKernelsEngage(t *testing.T) {
	w, err := NewWorkload(129)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range prepareLines(t, w) {
		m := emu.NewMachine(w.Mem) // default engine, default thresholds
		before := emu.ReadTraceStats()
		sweepLines(w, v, m, 0) // warm-up: record, compile, recompile at O3
		warm := emu.ReadTraceStats()
		st := sweepLines(w, v, m, 0)
		after := emu.ReadTraceStats()
		if st.errMsg != "" {
			t.Fatalf("%s: %s", name, st.errMsg)
		}
		if warm.Compiled == before.Compiled {
			t.Errorf("%s: no trace compiled (aborts by reason: %v)", name, warm.AbortedBy)
			continue
		}
		if hostCompilesTraces && warm.NativeCompiled == before.NativeCompiled {
			t.Errorf("%s: traces compiled, none natively", name)
		}
		runs, iters := after.Runs-warm.Runs, after.Iters-warm.Iters
		if runs == 0 || iters/runs <= 50 {
			t.Errorf("%s: %d iterations over %d runs in steady state, want more than 50 per run", name, iters, runs)
		}
	}
}

// hostCompilesTraces mirrors the build constraint of the native trace
// backend (internal/jit/tracerun_amd64.go); elsewhere traces run on the VM.
const hostCompilesTraces = runtime.GOARCH == "amd64" && runtime.GOOS == "linux"
