package jit

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/crosstest"
	"repro/internal/emu"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// The tests in this file exercise the trace tier end to end: this package's
// init registers the trace compiler with internal/emu, so machines built
// here really record, compile, and execute superblock traces. (The pure
// interpreter-vs-blocks differential tests live in internal/emu, whose test
// binary does not import jit and therefore runs with the tier disabled.)

// engineMode selects which execution tier a differential run uses.
type engineMode int

const (
	modeInterp engineMode = iota
	modeBlocks
	modeTraces
)

func (em engineMode) String() string {
	return [...]string{"interp", "blocks", "traces"}[em]
}

// hotOpts makes every loop trace-eligible immediately and recompiles at O3
// after a few runs, so short differential programs still cover both pipelines.
var hotOpts = emu.TraceOptions{HotThreshold: 1, O3Threshold: 4}

func configure(m *emu.Machine, mode engineMode) {
	m.Interp = mode == modeInterp
	m.Traces = mode == modeTraces
	m.TraceOpts = hotOpts
}

// traceState is everything the three engines must agree on bit-for-bit.
type traceState struct {
	gpr       [16]uint64
	xmm       [16]emu.XMMReg
	flags     emu.Flags
	instCount uint64
	cycles    float64
	rip       uint64
	errMsg    string
	scratch   string
}

func snapshot(m *emu.Machine, err error) traceState {
	st := traceState{
		gpr:       m.GPR,
		xmm:       m.XMM,
		flags:     m.Flags,
		instCount: m.InstCount,
		cycles:    m.Cycles,
		rip:       m.RIP,
	}
	if err != nil {
		st.errMsg = err.Error()
	}
	return st
}

func runCrosstest(t *testing.T, p *crosstest.Program, a, b uint64, mode engineMode) traceState {
	t.Helper()
	mem, entry, scratch, err := p.Place()
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	m := emu.NewMachine(mem)
	configure(m, mode)
	_, cerr := m.Call(entry, emu.CallArgs{Ints: []uint64{a, b, scratch}}, 2_000_000)
	st := snapshot(m, cerr)
	if buf, rerr := mem.Read(scratch, crosstest.ScratchSize); rerr == nil {
		st.scratch = string(buf)
	}
	return st
}

func diffStates(t *testing.T, desc string, want, got traceState, wantMode, gotMode engineMode) {
	t.Helper()
	if want.errMsg != got.errMsg {
		t.Fatalf("%s: error mismatch:\n %v: %q\n %v: %q", desc, wantMode, want.errMsg, gotMode, got.errMsg)
	}
	if want.gpr != got.gpr {
		t.Fatalf("%s: GPR mismatch:\n %v: %x\n %v: %x", desc, wantMode, want.gpr, gotMode, got.gpr)
	}
	if want.xmm != got.xmm {
		t.Fatalf("%s: XMM mismatch", desc)
	}
	if want.flags != got.flags {
		t.Fatalf("%s: Flags mismatch:\n %v: %+v\n %v: %+v", desc, wantMode, want.flags, gotMode, got.flags)
	}
	if want.instCount != got.instCount {
		t.Fatalf("%s: InstCount mismatch: %v %d, %v %d", desc, wantMode, want.instCount, gotMode, got.instCount)
	}
	if want.cycles != got.cycles {
		t.Fatalf("%s: Cycles mismatch: %v %v, %v %v", desc, wantMode, want.cycles, gotMode, got.cycles)
	}
	if want.rip != got.rip {
		t.Fatalf("%s: RIP mismatch: %v %#x, %v %#x", desc, wantMode, want.rip, gotMode, got.rip)
	}
	if want.scratch != got.scratch {
		t.Fatalf("%s: scratch memory mismatch", desc)
	}
}

// TestTraceEngineDifferential runs the full generated corpus through all
// three engines and demands bit-identical architectural state. Programs
// whose loop bodies the trace lifter rejects (FP, ADC/SBB) still run — the
// head is blacklisted and execution stays on the block engine — so this
// also covers the abort-and-fall-back path.
func TestTraceEngineDifferential(t *testing.T) {
	inputs := [][2]uint64{{3, 5}, {0xFFFF_FFFF_FFFF_FFF0, 2}}
	for seed := int64(0); seed < 120; seed++ {
		p, err := crosstest.Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		for _, in := range inputs {
			ref := runCrosstest(t, p, in[0], in[1], modeInterp)
			blocks := runCrosstest(t, p, in[0], in[1], modeBlocks)
			traces := runCrosstest(t, p, in[0], in[1], modeTraces)
			diffStates(t, p.Desc, ref, blocks, modeInterp, modeBlocks)
			diffStates(t, p.Desc, ref, traces, modeInterp, modeTraces)
		}
	}
	st := emu.ReadTraceStats()
	if st.Compiled == 0 {
		t.Fatalf("trace differential ran without compiling a single trace: %+v", st)
	}
}

// assembleAt builds a snippet at base.
func assembleAt(t testing.TB, base uint64, build func(b *asm.Builder)) []byte {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	code, _, err := b.Assemble(base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return code
}

// traceLoop is a trace-friendly counted loop: rax accumulates a mixed ALU
// chain over `iters` iterations.
func traceLoop(iters int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(iters, 8))
		b.I(x86.MOV, x86.R64(x86.RDX), x86.Imm(0x1234567, 8))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDX))
		b.I(x86.XOR, x86.R64(x86.RDX), x86.R64(x86.RAX))
		b.I(x86.SHR, x86.R64(x86.RDX), x86.Imm(3, 1))
		b.I(x86.LEA, x86.R64(x86.RAX), x86.MemBIS(8, x86.RAX, x86.RDX, 2, 17))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	}
}

func runSnippet(t *testing.T, code []byte, mode engineMode, budget uint64, setup func(m *emu.Machine, mem *emu.Memory)) traceState {
	t.Helper()
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	configure(m, mode)
	if setup != nil {
		setup(m, mem)
	}
	_, err := m.Call(0x5000, emu.CallArgs{}, budget)
	return snapshot(m, err)
}

// TestTraceGuardExit runs a counted loop long enough to be dominated by
// compiled trace iterations; the loop's final not-taken branch leaves
// through a guard side exit and must land in exactly the interpreter state.
func TestTraceGuardExit(t *testing.T) {
	code := assembleAt(t, 0x5000, traceLoop(10_000))
	ref := runSnippet(t, code, modeInterp, 0, nil)
	got := runSnippet(t, code, modeTraces, 0, nil)
	diffStates(t, "guard exit", ref, got, modeInterp, modeTraces)
	st := emu.ReadTraceStats()
	if st.Iters == 0 {
		t.Fatalf("no trace iterations recorded: %+v", st)
	}
}

// TestTraceBudgetCutoff sweeps the instruction budget across every possible
// cutoff of a traced loop, including cutoffs that land mid-iteration, and
// demands the interpreter's exact partial state and error text.
func TestTraceBudgetCutoff(t *testing.T) {
	code := assembleAt(t, 0x5000, traceLoop(50))
	full := runSnippet(t, code, modeInterp, 0, nil)
	for budget := uint64(1); budget <= full.instCount+1; budget++ {
		ref := runSnippet(t, code, modeInterp, budget, nil)
		got := runSnippet(t, code, modeTraces, budget, nil)
		diffStates(t, "budget cutoff", ref, got, modeInterp, modeTraces)
	}
	if !strings.Contains(runSnippet(t, code, modeTraces, 7, nil).errMsg, "instruction budget") {
		t.Fatal("budget error not surfaced through the trace engine")
	}
}

// TestTraceBudgetCutoffGenerated repeats the sweep on a generated program
// (seed 7, the one the block-engine budget test uses).
func TestTraceBudgetCutoffGenerated(t *testing.T) {
	p, err := crosstest.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	full := runCrosstest(t, p, 3, 5, modeInterp)
	run := func(mode engineMode, budget uint64) traceState {
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatal(err)
		}
		m := emu.NewMachine(mem)
		configure(m, mode)
		_, cerr := m.Call(entry, emu.CallArgs{Ints: []uint64{3, 5, scratch}}, budget)
		return snapshot(m, cerr)
	}
	for budget := uint64(1); budget <= full.instCount+1; budget++ {
		diffStates(t, "generated budget", run(modeInterp, budget), run(modeTraces, budget), modeInterp, modeTraces)
	}
}

// TestTraceMemFaultDeopt drives a pointer-walking loop off the end of its
// region mid-trace: the faulting load must deoptimize before executing so
// the block engine reports the interpreter's exact fault.
func TestTraceMemFaultDeopt(t *testing.T) {
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(1000, 8))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RDX, 0))
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RBX))
		b.I(x86.ADD, x86.R64(x86.RDX), x86.Imm(8, 8))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	setup := func(m *emu.Machine, mem *emu.Memory) {
		r := mem.Alloc(64*8, 64, "data") // 64 slots; the loop wants 1000
		for i := 0; i < 64; i++ {
			if err := mem.WriteU(r.Start+uint64(8*i), 8, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		m.GPR[x86.RDX] = r.Start
	}
	ref := runSnippet(t, code, modeInterp, 0, setup)
	if ref.errMsg == "" {
		t.Fatal("expected a fault from the reference run")
	}
	got := runSnippet(t, code, modeTraces, 0, setup)
	diffStates(t, "mem fault deopt", ref, got, modeInterp, modeTraces)
}

// TestTraceSMCStoreDeopt stores into the (watched) code region from inside
// a traced loop. The store must deoptimize so the tracked write path bumps
// the code generation, and the machine must keep making progress even when
// the deopt lands on the first trace instruction (the zero-progress guard).
func TestTraceSMCStoreDeopt(t *testing.T) {
	var patch uint64
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(6, 8))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.MemBD(8, x86.RDX, 0), x86.R64(x86.RBX)) // store to code page
		b.I(x86.ADD, x86.R64(x86.RAX), x86.Imm(1, 8))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	code = append(code, make([]byte, 16)...) // writable padding after RET
	patch = 0x5000 + uint64(len(code)) - 8
	setup := func(m *emu.Machine, mem *emu.Memory) {
		m.GPR[x86.RDX] = patch
		m.GPR[x86.RBX] = 0 // stores the bytes already there
	}
	ref := runSnippet(t, code, modeInterp, 0, setup)
	got := runSnippet(t, code, modeTraces, 0, setup)
	diffStates(t, "smc store deopt", ref, got, modeInterp, modeTraces)
	if got.gpr[x86.RAX] != 6 {
		t.Fatalf("loop did not complete: rax=%d", got.gpr[x86.RAX])
	}
}

// TestTracePenaltyDeopt puts a cache-line-splitting load in a traced loop:
// every iteration must deoptimize (penalized accesses cannot be accounted
// in-trace) yet cycles still match the interpreter exactly.
func TestTracePenaltyDeopt(t *testing.T) {
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(100, 8))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.MOV, x86.R64(x86.RBX), x86.MemBD(8, x86.RDX, 0)) // split load
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RBX))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	})
	setup := func(m *emu.Machine, mem *emu.Memory) {
		r := mem.Alloc(128, 64, "data")
		if err := mem.WriteU(r.Start+60, 8, 0x42); err != nil { // straddles the line
			t.Fatal(err)
		}
		m.GPR[x86.RDX] = r.Start + 60
	}
	ref := runSnippet(t, code, modeInterp, 0, setup)
	got := runSnippet(t, code, modeTraces, 0, setup)
	diffStates(t, "penalty deopt", ref, got, modeInterp, modeTraces)
}

// TestTraceConcurrentInvalidate runs traced loops on two machines sharing a
// Memory while a third goroutine hammers Memory.InvalidateRange. The
// backedge generation check must exit cleanly and the machines retranslate;
// run under -race this also proves the tier adds no unsynchronized state.
func TestTraceConcurrentInvalidate(t *testing.T) {
	code := assembleAt(t, 0x5000, traceLoop(200_000))
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	ref := runSnippet(t, code, modeInterp, 0, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mem.InvalidateRange(0x9000, 0x9001) // bumps the generation only
			}
		}
	}()
	var machines sync.WaitGroup
	for i := 0; i < 2; i++ {
		machines.Add(1)
		go func() {
			defer machines.Done()
			stack := mem.Alloc(1<<16, 4096, "stk")
			m := emu.NewMachine(mem)
			configure(m, modeTraces)
			m.GPR[x86.RSP] = stack.End() - 64
			got, err := m.Call(0x5000, emu.CallArgs{}, 0)
			if err != nil {
				t.Errorf("call: %v", err)
			}
			if got != ref.gpr[x86.RAX] {
				t.Errorf("rax = %#x, want %#x", got, ref.gpr[x86.RAX])
			}
		}()
	}
	machines.Wait()
	close(stop)
	wg.Wait()
}

// TestTraceO3Recompile pushes a trace past the O3 threshold and checks the
// recompiled trace still agrees with the interpreter and was counted.
func TestTraceO3Recompile(t *testing.T) {
	before := emu.ReadTraceStats().CompiledO3
	code := assembleAt(t, 0x5000, traceLoop(400))
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	ref := runSnippet(t, code, modeInterp, 0, nil)
	m := emu.NewMachine(mem)
	configure(m, modeTraces)
	// Re-enter the loop many times with a small budget so the same compiled
	// trace accumulates runs and crosses the O3 threshold.
	for i := 0; i < 16; i++ {
		m.Reset()
		_, _ = m.Call(0x5000, emu.CallArgs{}, 0)
	}
	if m.GPR[x86.RAX] != ref.gpr[x86.RAX] {
		t.Fatalf("rax = %#x, want %#x", m.GPR[x86.RAX], ref.gpr[x86.RAX])
	}
	if after := emu.ReadTraceStats().CompiledO3; after == before {
		t.Fatal("trace was never recompiled at O3")
	}
}

// TestTraceIndirectJumpAborts pins the trace tier's contract for indirect
// control flow (the jump-table idiom): a hot loop whose back edge is an
// indirect jmp through an in-memory table cannot be traced. Recording must
// abort exactly once at the indirect jmp and blacklist the loop head — a
// second abort would mean the head was re-recorded every iteration — while
// execution stays on the block engine with bit-identical interpreter state.
// Compiling through the indirect branch (guessing the target) would be a
// silent miscompile once the table is rewritten, so "no trace at all" is
// the asserted behavior.
func TestTraceIndirectJumpAborts(t *testing.T) {
	code := assembleAt(t, 0x5000, func(b *asm.Builder) {
		loop := b.NewLabel()
		done := b.NewLabel()
		b.I(x86.MOV, x86.R64(x86.RAX), x86.Imm(0, 8))
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(200, 8))
		// Build the one-entry jump table: [rdx] = &loop.
		b.MovLabel(x86.RBX, loop)
		b.I(x86.MOV, x86.MemBD(8, x86.RDX, 0), x86.R64(x86.RBX))
		b.Bind(loop)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.I(x86.XOR, x86.R64(x86.RAX), x86.Imm(0x5A, 8))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondE, done)
		b.I(x86.JMPIndirect, x86.MemBD(8, x86.RDX, 0))
		b.Bind(done)
		b.Ret()
	})
	table := func(m *emu.Machine, mem *emu.Memory) {
		r := mem.Alloc(8, 8, "table")
		m.GPR[x86.RDX] = r.Start
	}
	before := emu.ReadTraceStats()
	ref := runSnippet(t, code, modeInterp, 0, table)
	got := runSnippet(t, code, modeTraces, 0, table)
	diffStates(t, "indirect back edge", ref, got, modeInterp, modeTraces)
	after := emu.ReadTraceStats()
	if after.Compiled != before.Compiled {
		t.Errorf("compiled %d traces across an indirect back edge, want 0",
			after.Compiled-before.Compiled)
	}
	if aborts := after.Aborted - before.Aborted; aborts != 1 {
		t.Errorf("recording aborted %d times, want exactly 1: head was not blacklisted", aborts)
	}
	if n := after.AbortedBy[emu.AbortIndirect] - before.AbortedBy[emu.AbortIndirect]; n != 1 {
		t.Errorf("%d aborts counted as %v, want 1 (by reason: %v)", n, emu.AbortIndirect, after.AbortedBy)
	}
}

// TestTraceAbortReasons drives one loop per abort reason through the trace
// tier and checks that exactly that reason is counted, that the summed
// Aborted field moves with it, and that state stays the interpreter's.
func TestTraceAbortReasons(t *testing.T) {
	counted := func(b *asm.Builder, n int64, body func()) {
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(n, 8))
		loop := b.NewLabel()
		b.Bind(loop)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
		body()
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, loop)
		b.Ret()
	}
	call := func(b *asm.Builder) func() {
		return func() {
			next := b.NewLabel()
			b.CallLabel(next)
			b.Bind(next)
			b.I(x86.ADD, x86.R64(x86.RSP), x86.Imm(8, 8))
		}
	}
	cases := []struct {
		name  string
		opts  emu.TraceOptions
		build func(b *asm.Builder)
		comp  emu.TraceCompiler
		want  map[emu.TraceAbortReason]uint64
	}{
		{name: "call", opts: hotOpts,
			build: func(b *asm.Builder) { counted(b, 50, call(b)) },
			want:  map[emu.TraceAbortReason]uint64{emu.AbortCall: 1}},
		// Three iterations: the first backward arrival is the last
		// iteration, so the recorded path runs into the ret.
		{name: "ret", opts: hotOpts,
			build: func(b *asm.Builder) { counted(b, 3, func() {}) },
			want:  map[emu.TraceAbortReason]uint64{emu.AbortRet: 1}},
		{name: "too-long", opts: emu.TraceOptions{HotThreshold: 1, MaxInsts: 3},
			build: func(b *asm.Builder) { counted(b, 50, func() { b.I(x86.XOR, x86.R64(x86.RAX), x86.Imm(5, 8)) }) },
			want:  map[emu.TraceAbortReason]uint64{emu.AbortTooLong: 1}},
		{name: "unsupported-op", opts: hotOpts,
			build: func(b *asm.Builder) { counted(b, 50, func() { b.I(x86.ADC, x86.R64(x86.RAX), x86.R64(x86.RCX)) }) },
			want:  map[emu.TraceAbortReason]uint64{emu.AbortUnsupportedOp: 1}},
		{name: "compile-error", opts: hotOpts,
			build: func(b *asm.Builder) { counted(b, 50, func() {}) },
			comp:  func(*emu.TraceRequest) (emu.TraceRunFunc, error) { return nil, errors.New("backend on fire") },
			want:  map[emu.TraceAbortReason]uint64{emu.AbortCompileError: 1}},
	}
	for r, want := range []string{"call", "ret", "indirect", "too-long",
		"unsupported-op", "compile-error", "no-progress"} {
		if got := emu.TraceAbortReason(r).String(); got != want {
			t.Errorf("reason %d is named %q, want %q", r, got, want)
		}
	}
	for _, tc := range cases {
		code := assembleAt(t, 0x5000, tc.build)
		ref := runSnippet(t, code, modeInterp, 0, nil)
		if tc.comp != nil {
			emu.RegisterTraceCompiler(tc.comp)
		}
		before := emu.ReadTraceStats()
		mem := emu.NewMemory(0x1000000)
		if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
			t.Fatal(err)
		}
		m := emu.NewMachine(mem)
		m.Traces = true
		m.TraceOpts = tc.opts
		_, err := m.Call(0x5000, emu.CallArgs{}, 0)
		after := emu.ReadTraceStats()
		emu.RegisterTraceCompiler(CompileTrace)
		diffStates(t, tc.name, ref, snapshot(m, err), modeInterp, modeTraces)
		var sum uint64
		for r := emu.TraceAbortReason(0); r < emu.NumTraceAbortReasons; r++ {
			n := after.AbortedBy[r] - before.AbortedBy[r]
			sum += n
			if n != tc.want[r] {
				t.Errorf("%s: %d aborts counted as %v, want %d", tc.name, n, r, tc.want[r])
			}
		}
		if d := after.Aborted - before.Aborted; d != sum {
			t.Errorf("%s: Aborted moved by %d, its reasons by %d", tc.name, d, sum)
		}
		if after.Compiled != before.Compiled {
			t.Errorf("%s: compiled %d traces, want 0", tc.name, after.Compiled-before.Compiled)
		}
	}
}

// loopNest is a counted outer loop around a three-iteration inner loop. The
// inner head's first backward arrival is its last iteration, so under
// hotOpts its recording always leaves the inner loop.
func loopNest(outerTrips int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.I(x86.MOV, x86.R64(x86.RBX), x86.Imm(outerTrips, 8))
		outer := b.NewLabel()
		b.Bind(outer)
		b.I(x86.MOV, x86.R64(x86.RCX), x86.Imm(3, 8))
		inner := b.NewLabel()
		b.Bind(inner)
		b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RCX))
		b.I(x86.SUB, x86.R64(x86.RCX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, inner)
		b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(x86.RBX))
		b.I(x86.SUB, x86.R64(x86.RBX), x86.Imm(1, 8))
		b.Jcc(x86.CondNE, outer)
		b.Ret()
	}
}

// callRepeatedly calls the snippet n times on one machine and returns the
// final state and the trace counters as they stood after the first call.
func callRepeatedly(t *testing.T, code []byte, mode engineMode, n int) (traceState, emu.TraceStats) {
	t.Helper()
	mem := emu.NewMemory(0x1000000)
	if _, err := mem.MapBytes(0x5000, code, "code"); err != nil {
		t.Fatal(err)
	}
	m := emu.NewMachine(mem)
	configure(m, mode)
	var first emu.TraceStats
	var err error
	for i := 0; i < n; i++ {
		_, err = m.Call(0x5000, emu.CallArgs{}, 0)
		if i == 0 {
			first = emu.ReadTraceStats()
		}
	}
	return snapshot(m, err), first
}

// TestTraceReanchorsAtEnclosingLoop pins what happens to a recording that
// begins on the last iteration of a short inner loop: the path leaves the
// inner loop and reaches the back edge of the outer one, and the recording
// tries to close there instead of at the inner head. The result is one trace
// of the outer loop with the inner loop unrolled along it, which stays in
// its loop for the whole call. Every later call re-heats the inner head on
// the outer loop's first iteration; that recording stops at the outer head,
// which has its trace by then, without a second trace and without an abort.
func TestTraceReanchorsAtEnclosingLoop(t *testing.T) {
	code := assembleAt(t, 0x5000, loopNest(400))
	ref, _ := callRepeatedly(t, code, modeInterp, 10)
	before := emu.ReadTraceStats()
	got, first := callRepeatedly(t, code, modeTraces, 10)
	after := emu.ReadTraceStats()
	diffStates(t, "re-anchored nest", ref, got, modeInterp, modeTraces)
	if n := first.Compiled - before.Compiled; n != 1 {
		t.Errorf("first call compiled %d traces, want the one outer-loop trace", n)
	}
	if n := after.Compiled - first.Compiled; n != 0 {
		t.Errorf("later calls compiled %d more traces, want none", n)
	}
	if n := after.Aborted - before.Aborted; n != 0 {
		t.Errorf("%d aborts (by reason %v), want none", n, after.AbortedBy)
	}
	runs, iters := after.Runs-before.Runs, after.Iters-before.Iters
	if runs == 0 || iters/runs < 100 {
		t.Errorf("%d iterations over %d runs: the trace does not stay in the outer loop", iters, runs)
	}
}

// TestTraceReanchorFallsBackToStartingHead is the other half: the enclosing
// loop has two iterations, so the re-anchored recording leaves it instead of
// closing. The path did pass the inner head again on the way, and the inner
// head gets the trace that closing there would have given — what it had
// before re-anchoring existed — at the moment the path leaves the enclosing
// loop, not at the end of the function. The second call runs that trace.
func TestTraceReanchorFallsBackToStartingHead(t *testing.T) {
	code := assembleAt(t, 0x5000, loopNest(2))
	ref, _ := callRepeatedly(t, code, modeInterp, 2)
	before := emu.ReadTraceStats()
	got, first := callRepeatedly(t, code, modeTraces, 2)
	after := emu.ReadTraceStats()
	diffStates(t, "fallback nest", ref, got, modeInterp, modeTraces)
	if n := first.Compiled - before.Compiled; n != 1 {
		t.Errorf("first call compiled %d traces, want the one at the inner head", n)
	}
	if n := after.Aborted - before.Aborted; n != 0 {
		t.Errorf("%d aborts (by reason %v), want none", n, after.AbortedBy)
	}
	if after.Runs == first.Runs {
		t.Error("second call ran no trace")
	}
}
