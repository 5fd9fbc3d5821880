package crosstest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dbrew"
	"repro/internal/emu"
	"repro/internal/fastpath"
	"repro/internal/ir"
	"repro/internal/jit"
	"repro/internal/lift"
	"repro/internal/opt"
	"repro/internal/x86"
	"repro/internal/x86/asm"
)

// inputs exercised for every generated program.
var inputPairs = [][2]uint64{
	{0, 0},
	{1, 2},
	{0xFFFFFFFFFFFFFFFF, 1},
	{0x8000000000000000, 0x7FFFFFFFFFFFFFFF},
	{12345, 678910},
	{0xDEADBEEF, 0xCAFEBABE12345678},
}

// TestDifferential runs each generated program through all five execution
// paths and requires identical results and identical scratch memory.
func TestDifferential(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		runDifferential(t, p)
	}
}

func runDifferential(t *testing.T, p *Program) {
	t.Helper()
	sig := p.Sig()

	// Build all variants once, in one address space.
	mem, entry, scratch, err := p.Place()
	if err != nil {
		t.Fatalf("%s: place: %v", p.Desc, err)
	}

	// On any failure (including Fatalf's Goexit) dump the generated
	// program's disassembly and the lifted IR variants, so a fuzzing
	// counterexample is diagnosable from the report alone.
	var fRaw, fOpt *ir.Func
	var fpRes *fastpath.Result
	alreadyFailed := t.Failed()
	defer func() {
		if !t.Failed() || alreadyFailed {
			return
		}
		if lst, err := dbrew.Listing(mem, entry, len(p.Code)); err == nil {
			t.Logf("%s (seed %d): generated code:\n\t%s", p.Desc, p.Seed, strings.Join(lst, "\n\t"))
		}
		if fRaw != nil {
			t.Logf("%s: lifted IR (raw):\n%s", p.Desc, ir.FormatFunc(fRaw))
		}
		if fOpt != nil {
			t.Logf("%s: lifted IR (post-O3):\n%s", p.Desc, ir.FormatFunc(fOpt))
		}
		if fpRes != nil {
			if lst, err := dbrew.Listing(mem, fpRes.Entry, fpRes.CodeSize); err == nil {
				t.Logf("%s: fastpath output (%v, %d bytes):\n\t%s",
					p.Desc, fpRes.Mode, fpRes.CodeSize, strings.Join(lst, "\n\t"))
			}
		}
	}()

	// Variant A: lifted (raw) for the interpreter.
	lRaw := lift.New(mem, lift.DefaultOptions())
	fRaw, err = lRaw.LiftFunc(entry, "raw", sig)
	if err != nil {
		t.Fatalf("%s: lift: %v", p.Desc, err)
	}
	// Variant B: lifted + O3, interpreted and JIT-compiled.
	lOpt := lift.New(mem, lift.DefaultOptions())
	fOpt, err = lOpt.LiftFunc(entry, "opt", sig)
	if err != nil {
		t.Fatalf("%s: lift2: %v", p.Desc, err)
	}
	// Strict FP: fast-math legitimately changes signed zeros and
	// association, which would break bit-exact differential comparison.
	cfg := opt.O3()
	cfg.FastMath = false
	opt.Optimize(fOpt, cfg)
	if err := ir.Verify(fOpt); err != nil {
		t.Fatalf("%s: post-O3 verify: %v", p.Desc, err)
	}
	comp := jit.NewCompiler(mem)
	jitEntry, err := comp.CompileModule(lOpt.Module, "opt")
	if err != nil {
		t.Fatalf("%s: jit: %v\n%s", p.Desc, err, ir.FormatFunc(fOpt))
	}
	// Variant C: DBrew identity rewrite.
	rw := dbrew.NewRewriter(mem, entry, sig)
	dbrewEntry, err := rw.Rewrite()
	if err != nil {
		t.Fatalf("%s: dbrew: %v", p.Desc, err)
	}
	if rw.Stats.Failed {
		t.Fatalf("%s: dbrew fell back: %v", p.Desc, rw.Stats.Err)
	}
	// Variant D: fastpath single-pass baseline — byte-copy shortcut for
	// straight-line programs, fused lift+baseline-JIT for the rest.
	fpRes, err = fastpath.Compile(mem, entry, "fp", sig, fastpath.Options{NamePrefix: "xt."})
	if err != nil {
		t.Fatalf("%s: fastpath: %v", p.Desc, err)
	}

	for _, in := range inputPairs {
		// Native reference.
		if err := ResetScratch(mem, scratch); err != nil {
			t.Fatal(err)
		}
		want, wantBuf, err := RunNative(mem, entry, scratch, p, in[0], in[1])
		if err != nil {
			t.Fatalf("%s in=%v: native: %v", p.Desc, in, err)
		}

		// Raw lifted IR, interpreted.
		ResetScratch(mem, scratch)
		got, buf := runInterp(t, p, mem, fRaw, scratch, in)
		check(t, p, "lift+interp", in, want, got, wantBuf, buf)

		// Optimized IR, interpreted.
		ResetScratch(mem, scratch)
		got, buf = runInterp(t, p, mem, fOpt, scratch, in)
		check(t, p, "lift+O3+interp", in, want, got, wantBuf, buf)

		// Optimized IR, JIT-compiled, emulated.
		ResetScratch(mem, scratch)
		got, buf, err = RunNative(mem, jitEntry, scratch, p, in[0], in[1])
		if err != nil {
			t.Fatalf("%s in=%v: jit run: %v", p.Desc, in, err)
		}
		check(t, p, "lift+O3+jit", in, want, got, wantBuf, buf)

		// DBrew identity rewrite, emulated.
		ResetScratch(mem, scratch)
		got, buf, err = RunNative(mem, dbrewEntry, scratch, p, in[0], in[1])
		if err != nil {
			t.Fatalf("%s in=%v: dbrew run: %v", p.Desc, in, err)
		}
		check(t, p, "dbrew", in, want, got, wantBuf, buf)

		// Fastpath baseline, emulated.
		ResetScratch(mem, scratch)
		got, buf, err = RunNative(mem, fpRes.Entry, scratch, p, in[0], in[1])
		if err != nil {
			t.Fatalf("%s in=%v: fastpath(%v) run: %v", p.Desc, in, fpRes.Mode, err)
		}
		check(t, p, "fastpath:"+fpRes.Mode.String(), in, want, got, wantBuf, buf)
	}
}

func runInterp(t *testing.T, p *Program, mem *emu.Memory, f *ir.Func, scratch uint64, in [2]uint64) (uint64, []byte) {
	t.Helper()
	ip := ir.NewInterp(mem)
	ip.MaxSteps = 5_000_000
	res, err := ip.CallFunc(f, []ir.RV{{Lo: in[0]}, {Lo: in[1]}, {Lo: scratch}})
	if err != nil {
		t.Fatalf("%s in=%v: interp: %v\n%s", p.Desc, in, err, ir.FormatFunc(f))
	}
	buf, err := mem.Read(scratch, ScratchSize)
	if err != nil {
		t.Fatal(err)
	}
	return res.Lo, buf
}

func check(t *testing.T, p *Program, path string, in [2]uint64, want, got uint64, wantBuf, buf []byte) {
	t.Helper()
	if got != want {
		t.Errorf("%s: %s(%#x, %#x) = %#x, native %#x", p.Desc, path, in[0], in[1], got, want)
	}
	if !bytes.Equal(wantBuf, buf) {
		t.Errorf("%s: %s(%#x, %#x): scratch memory diverged", p.Desc, path, in[0], in[1])
	}
}

// TestDBrewSpecializationConsistency fixes the first argument and checks
// that the specialized code matches the original called with that value.
func TestDBrewSpecializationConsistency(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		p, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatal(err)
		}
		const fixedA = 0x1234_5678_9ABC
		rw := dbrew.NewRewriter(mem, entry, p.Sig())
		rw.SetPar(0, fixedA)
		spec, err := rw.Rewrite()
		if err != nil {
			t.Fatal(err)
		}
		if rw.Stats.Failed {
			t.Fatalf("%s: dbrew fell back: %v", p.Desc, rw.Stats.Err)
		}
		for _, b := range []uint64{0, 7, 0xFFFF_FFFF_FFFF} {
			ResetScratch(mem, scratch)
			want, wantBuf, err := RunNative(mem, entry, scratch, p, fixedA, b)
			if err != nil {
				t.Fatal(err)
			}
			ResetScratch(mem, scratch)
			got, buf, err := RunNative(mem, spec, scratch, p, 0xBAD, b) // arg 0 ignored
			if err != nil {
				t.Fatalf("%s: specialized run: %v", p.Desc, err)
			}
			if got != want || !bytes.Equal(wantBuf, buf) {
				t.Errorf("%s: specialization diverged for b=%#x: %#x vs %#x", p.Desc, b, got, want)
			}
		}
	}
}

// TestDBrewPlusLLVMConsistency runs the full Figure 1 path on generated
// programs with a fixed parameter.
func TestDBrewPlusLLVMConsistency(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(500); seed < int64(500+seeds); seed++ {
		p, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatal(err)
		}
		const fixedA = 42
		rw := dbrew.NewRewriter(mem, entry, p.Sig())
		rw.SetPar(0, fixedA)
		spec, err := rw.Rewrite()
		if err != nil || rw.Stats.Failed {
			t.Fatalf("%s: dbrew: %v %v", p.Desc, err, rw.Stats.Err)
		}
		l := lift.New(mem, lift.DefaultOptions())
		f, err := l.LiftFunc(spec, "spec", p.Sig())
		if err != nil {
			t.Fatalf("%s: lift dbrew output: %v", p.Desc, err)
		}
		cfg := opt.O3()
		cfg.FastMath = false
		opt.Optimize(f, cfg)
		comp := jit.NewCompiler(mem)
		jentry, err := comp.CompileModule(l.Module, "spec")
		if err != nil {
			t.Fatalf("%s: jit: %v", p.Desc, err)
		}
		for _, b := range []uint64{3, 0x8000_0000_0000_0001} {
			ResetScratch(mem, scratch)
			want, wantBuf, err := RunNative(mem, entry, scratch, p, fixedA, b)
			if err != nil {
				t.Fatal(err)
			}
			ResetScratch(mem, scratch)
			got, buf, err := RunNative(mem, jentry, scratch, p, 0, b)
			if err != nil {
				t.Fatalf("%s: dbrew+llvm run: %v", p.Desc, err)
			}
			if got != want || !bytes.Equal(wantBuf, buf) {
				t.Errorf("%s: dbrew+llvm diverged for b=%#x: %#x vs %#x", p.Desc, b, got, want)
			}
		}
	}
}

// TestFastpathShortcutSeeds pins generator seeds whose programs are
// straight-line (no loop or diamond chunks), so the fastpath backend must
// take the direct byte-copy route rather than lowering through the lifter.
// Each seed then runs the full differential harness, which includes the
// fastpath variant — the copied code must agree bit-for-bit with the
// native reference. If the generator changes and a seed stops being
// copy-eligible, this fails rather than the shortcut coverage silently
// evaporating. The same seeds are in FuzzDifferential's in-code corpus.
func TestFastpathShortcutSeeds(t *testing.T) {
	// 3/17 are small integer ALU+mem programs, 15/28 carry SSE doubles
	// (28 is the longest at 22 instructions).
	for _, seed := range []int64{3, 15, 17, 28} {
		p, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mem, entry, _, err := p.Place()
		if err != nil {
			t.Fatalf("seed %d: place: %v", seed, err)
		}
		res, err := fastpath.Compile(mem, entry, "pin", p.Sig(), fastpath.Options{})
		if err != nil {
			t.Fatalf("seed %d: fastpath: %v", seed, err)
		}
		if res.Mode != fastpath.ModeCopy {
			t.Errorf("seed %d: mode = %v, want copy: shortcut coverage lost", seed, res.Mode)
		}
		runDifferential(t, p)
	}
}

// containsOp reports whether the program's code stream contains op.
func containsOp(p *Program, op x86.Op) bool {
	for off := 0; off < len(p.Code); {
		in, err := x86.Decode(p.Code[off:], 0x400000+uint64(off))
		if err != nil {
			return false
		}
		off += in.Len
		if in.Op == op {
			return true
		}
	}
	return false
}

// runDifferentialRelaxed is the masked-program harness: every execution
// path either agrees bit-for-bit with the native reference or rejects the
// program explicitly — a lift or fastpath error, or a DBrew fallback that
// re-enters the original code. Hard idioms rejecting is expected and
// classified; producing silently wrong code never is.
func runDifferentialRelaxed(t *testing.T, p *Program) {
	t.Helper()
	sig := p.Sig()
	mem, entry, scratch, err := p.Place()
	if err != nil {
		t.Fatalf("%s: place: %v", p.Desc, err)
	}

	type variant struct {
		name  string
		entry uint64
	}
	var variants []variant

	// DBrew: a fallback returns the original entry, which still runs below
	// (it must stay bit-identical); Stats.Failed only classifies it.
	rw := dbrew.NewRewriter(mem, entry, sig)
	de, err := rw.Rewrite()
	if err != nil {
		t.Fatalf("%s: dbrew: %v", p.Desc, err)
	}
	dbName := "dbrew"
	if rw.Stats.Failed {
		dbName = "dbrew-fallback"
	}
	variants = append(variants, variant{dbName, de})

	// lift + O3 + JIT: an unsupported idiom is a classified rejection.
	l := lift.New(mem, lift.DefaultOptions())
	if f, err := l.LiftFunc(entry, "m", sig); err != nil {
		t.Logf("%s: lift rejected (classified): %v", p.Desc, err)
	} else {
		cfg := opt.O3()
		cfg.FastMath = false
		opt.Optimize(f, cfg)
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: post-O3 verify: %v", p.Desc, err)
		}
		comp := jit.NewCompiler(mem)
		if je, err := comp.CompileModule(l.Module, "m"); err != nil {
			t.Logf("%s: jit rejected (classified): %v", p.Desc, err)
		} else {
			variants = append(variants, variant{"lift+O3+jit", je})
		}
	}

	// Fastpath: same contract.
	if res, err := fastpath.Compile(mem, entry, "m", sig, fastpath.Options{NamePrefix: "xm."}); err != nil {
		t.Logf("%s: fastpath rejected (classified): %v", p.Desc, err)
	} else {
		variants = append(variants, variant{"fastpath:" + res.Mode.String(), res.Entry})
	}

	engines := []struct {
		name string
		cfg  func(m *emu.Machine)
	}{
		{"interp", func(m *emu.Machine) { m.Interp = true }},
		{"block", func(m *emu.Machine) { m.Traces = false }},
	}
	for _, in := range inputPairs {
		if err := ResetScratch(mem, scratch); err != nil {
			t.Fatal(err)
		}
		// Reference: the trace-tier machine on the original code.
		want, wantBuf, err := RunNative(mem, entry, scratch, p, in[0], in[1])
		if err != nil {
			t.Fatalf("%s in=%v: native: %v", p.Desc, in, err)
		}
		// The pure interpreter and the block engine must agree with it.
		for _, eng := range engines {
			ResetScratch(mem, scratch)
			m := emu.NewMachine(mem)
			eng.cfg(m)
			got, err := m.Call(entry, emu.CallArgs{Ints: []uint64{in[0], in[1], scratch}}, 2_000_000)
			if err != nil {
				t.Fatalf("%s in=%v: %s: %v", p.Desc, in, eng.name, err)
			}
			if p.UsesFP {
				got = m.XMM[0].Lo
			}
			buf, err := mem.Read(scratch, ScratchSize)
			if err != nil {
				t.Fatal(err)
			}
			check(t, p, eng.name, in, want, got, wantBuf, buf)
		}
		for _, v := range variants {
			ResetScratch(mem, scratch)
			got, buf, err := RunNative(mem, v.entry, scratch, p, in[0], in[1])
			if err != nil {
				t.Fatalf("%s in=%v: %s run: %v", p.Desc, in, v.name, err)
			}
			check(t, p, v.name, in, want, got, wantBuf, buf)
		}
	}
}

// TestDifferentialMasked sweeps the feature-gated generator shapes —
// computed gotos through in-memory jump tables and rep-string blocks —
// through the relaxed harness. The sweep also asserts both idioms actually
// appear somewhere in the swept programs, so a generator change cannot
// silently drop the coverage.
func TestDifferentialMasked(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	sawIndirect, sawRep := false, false
	for _, mask := range []Feature{FeatIndirect, FeatRepString, FeatIndirect | FeatRepString} {
		for seed := int64(1); seed <= seeds; seed++ {
			p, err := GenerateWithMask(seed, mask)
			if err != nil {
				t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
			}
			sawIndirect = sawIndirect || containsOp(p, x86.JMPIndirect)
			sawRep = sawRep || containsOp(p, x86.REPMOVSB) || containsOp(p, x86.REPSTOSB)
			runDifferentialRelaxed(t, p)
		}
	}
	if !sawIndirect {
		t.Error("no swept program contained an indirect jmp: jump-table coverage lost")
	}
	if !sawRep {
		t.Error("no swept program contained a rep-string op: rep-string coverage lost")
	}
}

// TestDifferentialFPLoop sweeps the scalar-FP-loop shape, alone and mixed
// with the other feature chunks, through the relaxed harness: every path that
// accepts a program — and the trace tier, which now compiles these loops —
// must agree bit for bit on the result and the scratch buffer.
func TestDifferentialFPLoop(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	sawLoop := false
	for _, mask := range []Feature{FeatFPLoop, FeatFPLoop | FeatNestedLoop, FeatFPLoop | FeatNestedLoop | FeatRepString | FeatIndirect} {
		for seed := int64(1); seed <= seeds; seed++ {
			p, err := GenerateWithMask(seed, mask)
			if err != nil {
				t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
			}
			sawLoop = sawLoop || containsOp(p, x86.DIVSD) || containsOp(p, x86.PXOR)
			runDifferentialRelaxed(t, p)
		}
	}
	if !sawLoop {
		t.Error("no swept program contained the FP loop: coverage lost")
	}
}

// TestDifferentialCallLoop sweeps the call-loop shape, alone and mixed with
// the other feature chunks, through the relaxed harness: the trace tier now
// records these loops through the call and the return, and every path that
// accepts a program must agree bit for bit on the result and the scratch
// buffer.
func TestDifferentialCallLoop(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	sawCall := false
	for _, mask := range []Feature{FeatCallLoop, FeatCallLoop | FeatFPLoop, FeatCallLoop | FeatFPLoop | FeatNestedLoop | FeatRepString | FeatIndirect} {
		for seed := int64(1); seed <= seeds; seed++ {
			p, err := GenerateWithMask(seed, mask)
			if err != nil {
				t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
			}
			sawCall = sawCall || containsOp(p, x86.CALL)
			runDifferentialRelaxed(t, p)
		}
	}
	if !sawCall {
		t.Error("no swept program contained the call loop: coverage lost")
	}
}

// TestDifferentialPackedLoop sweeps the packed-loop shape, alone and mixed
// with the other feature chunks, through the relaxed harness: the trace
// tier runs these loops with their 16-byte accesses and logged penalties,
// and every path that accepts a program must agree bit for bit on the
// result and the scratch buffer.
func TestDifferentialPackedLoop(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	sawPacked := false
	for _, mask := range []Feature{FeatPackedLoop, FeatPackedLoop | FeatFPLoop | FeatCallLoop, FeatPackedLoop | FeatFPLoop | FeatCallLoop | FeatNestedLoop | FeatRepString | FeatIndirect} {
		for seed := int64(1); seed <= seeds; seed++ {
			p, err := GenerateWithMask(seed, mask)
			if err != nil {
				t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
			}
			sawPacked = sawPacked || containsOp(p, x86.MULPD)
			runDifferentialRelaxed(t, p)
		}
	}
	if !sawPacked {
		t.Error("no swept program contained the packed loop: coverage lost")
	}
}

// TestGeneratorStreamsPinned pins the byte streams of the generator for the
// zero mask and every mask that existed before FeatFPLoop (hashes of seeds
// 0..63, recorded at the commit before the feature was added): benchmark
// workloads and corpus seeds draw their programs from these streams, so a new
// chunk kind must not move them.
func TestGeneratorStreamsPinned(t *testing.T) {
	pins := map[Feature]string{
		0:              "07d127da045fa575",
		FeatIndirect:   "067e234b7a3af9ee",
		FeatRepString:  "128e4837f0e40157",
		FeatNestedLoop: "c59de946dcb393b5",
		FeatIndirect | FeatRepString | FeatNestedLoop: "2f528cb170dd641b",
	}
	for mask, want := range pins {
		h := sha256.New()
		for seed := int64(0); seed < 64; seed++ {
			p, err := GenerateWithMask(seed, mask)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(p.Code)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != want {
			t.Errorf("mask %#x: generator stream hash %s, pinned %s", uint32(mask), got, want)
		}
	}
}

// TestGenerateMaskZeroUnchanged pins that a zero mask reproduces the exact
// byte stream Generate produced before features existed, for a handful of
// structurally diverse seeds — the feature gating must not perturb the
// random sequence of existing corpus seeds.
func TestGenerateMaskZeroUnchanged(t *testing.T) {
	for _, seed := range []int64{1, 3, 25, 28, 100, 500, 1458} {
		a, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateWithMask(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Code, b.Code) {
			t.Errorf("seed %d: mask-0 program differs from Generate", seed)
		}
	}
}

// TestFastpathRIPRelativeCopySubject pins a hand-built straight-line
// subject with RIP-relative constant loads (PIC-style data after the code):
// the fastpath backend must keep it on the copy route by re-encoding the
// displacements against the relocated address, and the result must survive
// the full strict differential harness.
func TestFastpathRIPRelativeCopySubject(t *testing.T) {
	b := asm.NewBuilder()
	// Layout (offsets): mov rax,[rip+17] at 0 (len 7, end 7, target 24);
	// mov r8,[rip+18] at 7 (len 7, end 14, target 32); add at 14; add at
	// 17; xor at 20; ret at 23; constants at 24 and 32.
	b.I(x86.MOV, x86.R64(x86.RAX), x86.MemRIP(8, 17))
	b.I(x86.MOV, x86.R64(x86.R8), x86.MemRIP(8, 18))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.R8))
	b.I(x86.ADD, x86.R64(x86.RAX), x86.R64(x86.RDI))
	b.I(x86.XOR, x86.R64(x86.RAX), x86.R64(x86.RSI))
	b.Ret()
	code, _, err := b.Assemble(0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 24 {
		t.Fatalf("code is %d bytes, want 24: hand-computed RIP displacements are stale", len(code))
	}
	code = binary.LittleEndian.AppendUint64(code, 0x1111_2222_3333_4444)
	code = binary.LittleEndian.AppendUint64(code, 0x0F0F_F0F0_5A5A_A5A5)
	p := &Program{Code: code, Seed: -1, Desc: "pinned-riprel"}

	mem, entry, _, err := p.Place()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fastpath.Compile(mem, entry, "riprel", p.Sig(), fastpath.Options{})
	if err != nil {
		t.Fatalf("fastpath: %v", err)
	}
	if res.Mode != fastpath.ModeCopy {
		t.Errorf("mode = %v, want copy: RIP-relative fixup coverage lost", res.Mode)
	}
	runDifferential(t, p)
}

// TestDifferentialCondOps pins fresh seeds that exercise the flag-consuming
// generator shapes (cmov/setcc/adc/sbb after cmp) introduced for the
// stc/clc carry-materialization feature.
func TestDifferentialCondOps(t *testing.T) {
	found := 0
	for seed := int64(500); seed < 560 && found < 12; seed++ {
		p, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, p)
		found++
	}
}
