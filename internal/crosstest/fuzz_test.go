package crosstest

// FuzzDifferential feeds generator seeds through the full differential
// harness: every program the seed produces must agree bit-for-bit across
// native emulation, lifted interpretation, lifted+O3 interpretation,
// lifted+O3+JIT, the DBrew identity rewrite, and the fastpath baseline
// backend, on every boundary input pair (straight-line programs also pin
// fastpath's byte-copy shortcut). A crash artifact is therefore a seed
// whose generated program
// exposes a miscompilation somewhere in the pipeline; runDifferential dumps
// the disassembly and lifted IR on failure so the artifact is diagnosable
// offline.
//
// The committed seed corpus (testdata/fuzz/FuzzDifferential) pins seeds
// covering the generator's structural shapes — straight-line ALU, SSE
// blocks, counted loops, conditional diamonds, flag-consuming ops — and
// runs as part of the plain test suite ("go test" executes the corpus
// without fuzzing). make fuzz-smoke runs a short live fuzz on top.
//
// RunNative arms the emulator's trace tier with aggressive thresholds, so
// the harness also differentially exercises superblock recording, trace-VM
// execution, and guard-exit deoptimization whenever a generated loop gets
// hot. The loop-bearing corpus seeds below pin that behavior.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/emu"
	"repro/internal/jit"
	"repro/internal/x86"
)

// decodeFuzzSeed splits a raw fuzz input into (generator seed, feature
// mask): the low 32 bits seed the generator, bits 32-37 select features.
// Plain small seeds — the whole historical corpus — decode to a zero mask
// and the exact program they always produced; masked inputs reach the
// jump-table, rep-string, trace-linking nested-loop, scalar-FP-loop,
// call-loop and packed-loop shapes, and the fuzzer can mutate between the
// spaces freely.
func decodeFuzzSeed(raw int64) (int64, Feature) {
	return int64(uint32(raw)), Feature((uint64(raw) >> 32) & 63)
}

// encodeFuzzSeed is decodeFuzzSeed's inverse for pinning corpus entries.
func encodeFuzzSeed(seed int64, mask Feature) int64 {
	return int64(uint64(uint32(seed)) | uint64(mask)<<32)
}

func FuzzDifferential(f *testing.F) {
	// In-code seeds mirror the ranges the deterministic tests sweep.
	for _, seed := range []int64{1, 7, 19, 40, 100, 500, 512, 555} {
		f.Add(seed)
	}
	// Straight-line seeds that keep the fastpath byte-copy shortcut under
	// fuzz (pinned by TestFastpathShortcutSeeds).
	for _, seed := range []int64{3, 15, 17, 28} {
		f.Add(seed)
	}
	// Masked seeds pin the hard-idiom shapes under fuzz: computed gotos
	// through in-memory jump tables (mask 1), rep movsb/stosb blocks
	// (mask 2), and both at once (mask 3). Verified idiom-bearing by
	// TestFuzzCorpusHitsHardIdioms; mirrored in testdata/fuzz.
	for _, raw := range pinnedMaskedSeeds {
		f.Add(raw)
	}
	// Nested-loop seeds keep trace-to-trace linking under fuzz (pinned by
	// TestFuzzCorpusEngagesTraceLinks; mirrored in testdata/fuzz).
	for _, raw := range pinnedLinkSeeds {
		f.Add(raw)
	}
	// FP-loop seeds keep the trace tier's scalar SSE2 subset under fuzz
	// (pinned by TestFuzzCorpusEngagesFPTraces; mirrored in testdata/fuzz).
	for _, raw := range pinnedFPLoopSeeds {
		f.Add(raw)
	}
	// Call-loop seeds keep traces through calls and returns under fuzz
	// (pinned by TestFuzzCorpusEngagesCallTraces; mirrored in testdata/fuzz).
	for _, raw := range pinnedCallLoopSeeds {
		f.Add(raw)
	}
	// Packed-loop seeds keep 16-byte accesses and logged penalties in traces
	// under fuzz (pinned by TestFuzzCorpusEngagesPackedTraces; mirrored in
	// testdata/fuzz).
	for _, raw := range pinnedPackedLoopSeeds {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw int64) {
		seed, mask := decodeFuzzSeed(raw)
		p, err := GenerateWithMask(seed, mask)
		if err != nil {
			// The generator rejects nothing today; treat a refusal as
			// uninteresting rather than a failure so fuzzing keeps moving.
			t.Skipf("seed %d: generate: %v", seed, err)
		}
		if mask != 0 {
			// Hard idioms may be rejected (classified) by the lifted
			// paths; the relaxed harness still requires every path that
			// accepts the program to agree bit-for-bit.
			runDifferentialRelaxed(t, p)
			return
		}
		runDifferential(t, p)
	})
}

// pinnedMaskedSeeds are the feature-masked corpus entries: two jump-table
// programs, two rep-string programs, two with both shapes (18|3 also mixes
// conditional diamonds around the indirect jmp, the closest the generator
// comes to irreducible regions).
var pinnedMaskedSeeds = []int64{
	encodeFuzzSeed(5, FeatIndirect),
	encodeFuzzSeed(10, FeatIndirect),
	encodeFuzzSeed(5, FeatRepString),
	encodeFuzzSeed(11, FeatRepString),
	encodeFuzzSeed(18, FeatIndirect|FeatRepString),
	encodeFuzzSeed(10, FeatIndirect|FeatRepString),
}

// pinnedLinkSeeds are nested-loop corpus entries whose adjacent-loop chunks
// provably hand off through the trace-to-trace link cache under RunNative's
// thresholds (verified by TestFuzzCorpusEngagesTraceLinks). 9/24/28 link
// multiple loop pairs; the masked pair mixes links with rep-string and
// jump-table idioms around the linked region.
var pinnedLinkSeeds = []int64{
	encodeFuzzSeed(9, FeatNestedLoop),
	encodeFuzzSeed(24, FeatNestedLoop),
	encodeFuzzSeed(28, FeatNestedLoop),
	encodeFuzzSeed(9, FeatNestedLoop|FeatRepString),
	encodeFuzzSeed(28, FeatNestedLoop|FeatRepString|FeatIndirect),
}

// pinnedFPLoopSeeds are FP-loop corpus entries whose scalar-double loops
// provably compile to traces and retire iterations in them under RunNative's
// thresholds (verified by TestFuzzCorpusEngagesFPTraces). The masked pair
// puts linked integer loops, rep-string blocks and jump tables around them.
var pinnedFPLoopSeeds = []int64{
	encodeFuzzSeed(5, FeatFPLoop),
	encodeFuzzSeed(28, FeatFPLoop),
	encodeFuzzSeed(34, FeatFPLoop),
	encodeFuzzSeed(18, FeatFPLoop|FeatNestedLoop),
	encodeFuzzSeed(18, FeatFPLoop|FeatNestedLoop|FeatRepString|FeatIndirect),
}

// pinnedCallLoopSeeds are call-loop corpus entries whose loops compile to
// traces that run through the call into the leaf and back under RunNative's
// thresholds (verified by TestFuzzCorpusEngagesCallTraces). 9/14 hold two
// call loops; the masked pair mixes in FP loops and every other shape.
var pinnedCallLoopSeeds = []int64{
	encodeFuzzSeed(9, FeatCallLoop),
	encodeFuzzSeed(11, FeatCallLoop),
	encodeFuzzSeed(14, FeatCallLoop),
	encodeFuzzSeed(8, FeatCallLoop|FeatFPLoop),
	encodeFuzzSeed(10, FeatCallLoop|FeatFPLoop|FeatNestedLoop|FeatRepString|FeatIndirect),
}

// pinnedPackedLoopSeeds are packed-loop corpus entries whose MOVUPD/ADDPD/
// MULPD/MOVAPD loops compile to traces and retire iterations in them under
// RunNative's thresholds, logging the penalties of their misaligned loads
// (verified by TestFuzzCorpusEngagesPackedTraces). 24/25 hold two packed
// loops; the masked pair mixes in FP loops and every other shape.
var pinnedPackedLoopSeeds = []int64{
	encodeFuzzSeed(18, FeatPackedLoop),
	encodeFuzzSeed(24, FeatPackedLoop),
	encodeFuzzSeed(25, FeatPackedLoop),
	encodeFuzzSeed(15, FeatPackedLoop|FeatFPLoop),
	encodeFuzzSeed(4, FeatPackedLoop|FeatCallLoop|FeatFPLoop|FeatNestedLoop|FeatRepString|FeatIndirect),
}

// TestFuzzCorpusFilesMatchNames pins the committed corpus to what its file
// names say: a file seed_<shape>_<seed>_m<mask> holds the input that
// decodes to that generator seed and feature mask, and every in-code pinned
// seed of the link, FP-loop, call-loop and packed-loop shapes has its file.
func TestFuzzCorpusFilesMatchNames(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDifferential")
	files, err := filepath.Glob(filepath.Join(dir, "seed_*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v, %d files", err, len(files))
	}
	named := regexp.MustCompile(`^seed_[a-z]+_(\d+)_m(\d+)$`)
	onDisk := map[int64]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var raw int64
		if _, err := fmt.Sscanf(string(b), "go test fuzz v1\nint64(%d)", &raw); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		onDisk[raw] = true
		sub := named.FindStringSubmatch(filepath.Base(f))
		if sub == nil {
			continue
		}
		var wantSeed int64
		var wantMask Feature
		fmt.Sscan(sub[1], &wantSeed)
		fmt.Sscan(sub[2], &wantMask)
		if seed, mask := decodeFuzzSeed(raw); seed != wantSeed || mask != wantMask {
			t.Errorf("%s holds seed %d mask %d", filepath.Base(f), seed, mask)
		}
	}
	for _, list := range [][]int64{pinnedLinkSeeds, pinnedFPLoopSeeds, pinnedCallLoopSeeds, pinnedPackedLoopSeeds} {
		for _, raw := range list {
			if seed, mask := decodeFuzzSeed(raw); !onDisk[raw] {
				t.Errorf("pinned seed %d mask %d has no corpus file", seed, mask)
			}
		}
	}
}

// TestFuzzCorpusHitsHardIdioms pins that the masked corpus seeds actually
// generate the idioms they were chosen for, so generator drift cannot
// silently reduce them to baseline programs.
func TestFuzzCorpusHitsHardIdioms(t *testing.T) {
	sawIndirect, sawRep := false, false
	for _, raw := range pinnedMaskedSeeds {
		seed, mask := decodeFuzzSeed(raw)
		p, err := GenerateWithMask(seed, mask)
		if err != nil {
			t.Fatalf("seed %d mask %#x: %v", seed, mask, err)
		}
		hasInd := containsOp(p, x86.JMPIndirect)
		hasRep := containsOp(p, x86.REPMOVSB) || containsOp(p, x86.REPSTOSB)
		if !hasInd && !hasRep {
			t.Errorf("seed %d mask %#x: program contains neither hard idiom", seed, mask)
		}
		sawIndirect = sawIndirect || hasInd
		sawRep = sawRep || hasRep
	}
	if !sawIndirect || !sawRep {
		t.Errorf("corpus coverage: indirect=%v rep-string=%v, want both", sawIndirect, sawRep)
	}
}

// TestFuzzCorpusEngagesTraces pins the loop-bearing corpus seeds to the
// trace tier: each must compile at least one superblock trace under
// RunNative's thresholds, so corpus runs (and fuzzing on top of them) keep
// covering the record -> compile -> trace-VM path. If the generator or the
// thresholds change and a seed stops tracing, this fails rather than the
// coverage silently evaporating.
func TestFuzzCorpusEngagesTraces(t *testing.T) {
	// 186/831/2517 compile several distinct traces in one program,
	// 1458 retires many trace iterations, 108/147 side-exit before
	// completing a single iteration, 25 is a plain counted loop.
	for _, seed := range []int64{25, 108, 147, 186, 831, 1458, 2517} {
		p, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatalf("seed %d: place: %v", seed, err)
		}
		before := emu.ReadTraceStats()
		if _, _, err := RunNative(mem, entry, scratch, p, 3, 5); err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		after := emu.ReadTraceStats()
		if after.Compiled == before.Compiled {
			t.Errorf("seed %d: no trace compiled (aborted %d): loop coverage lost",
				seed, after.Aborted-before.Aborted)
		}
	}
}

// TestFuzzCorpusEngagesTraceLinks pins the nested-loop corpus seeds to the
// linking tier: each must record at least one trace-to-trace link under
// RunNative's thresholds, so corpus runs (and fuzzing on top of them) keep
// covering the guard-exit handoff between compiled traces. Like its trace
// sibling above, this fails loudly if generator or threshold drift ever
// stops the seeds from linking.
func TestFuzzCorpusEngagesTraceLinks(t *testing.T) {
	for _, raw := range pinnedLinkSeeds {
		seed, mask := decodeFuzzSeed(raw)
		p, err := GenerateWithMask(seed, mask)
		if err != nil {
			t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatalf("seed %d mask %#x: place: %v", seed, mask, err)
		}
		before := emu.ReadTraceStats()
		if _, _, err := RunNative(mem, entry, scratch, p, 3, 5); err != nil {
			t.Fatalf("seed %d mask %#x: run: %v", seed, mask, err)
		}
		after := emu.ReadTraceStats()
		if after.Links == before.Links {
			t.Errorf("seed %d mask %#x: no trace link (compiled %d): linking coverage lost",
				seed, mask, after.Compiled-before.Compiled)
		}
	}
}

// TestFuzzCorpusEngagesFPTraces pins the FP-loop corpus seeds to the trace
// tier's scalar SSE2 subset: each must compile at least one trace whose
// recording holds scalar-double arithmetic, and retire loop iterations in
// compiled traces, under RunNative's thresholds. A wrapper around the
// registered compiler looks at what was recorded; it is removed again before
// the test returns.
func TestFuzzCorpusEngagesFPTraces(t *testing.T) {
	fpCompiled := 0
	emu.RegisterTraceCompiler(func(req *emu.TraceRequest) (emu.TraceRunFunc, error) {
		run, err := jit.CompileTrace(req)
		if err == nil {
			for _, st := range req.Steps {
				switch st.In.Op {
				case x86.ADDSD, x86.SUBSD, x86.MULSD, x86.DIVSD:
					fpCompiled++
					return run, nil
				}
			}
		}
		return run, err
	})
	defer emu.RegisterTraceCompiler(jit.CompileTrace)
	for _, raw := range pinnedFPLoopSeeds {
		seed, mask := decodeFuzzSeed(raw)
		if mask&FeatFPLoop == 0 {
			t.Fatalf("pinned FP-loop seed %#x decodes to mask %#x", raw, mask)
		}
		p, err := GenerateWithMask(seed, mask)
		if err != nil {
			t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatalf("seed %d mask %#x: place: %v", seed, mask, err)
		}
		fpCompiled = 0
		before := emu.ReadTraceStats()
		if _, _, err := RunNative(mem, entry, scratch, p, 3, 5); err != nil {
			t.Fatalf("seed %d mask %#x: run: %v", seed, mask, err)
		}
		after := emu.ReadTraceStats()
		if fpCompiled == 0 {
			t.Errorf("seed %d mask %#x: no trace with scalar-double arithmetic compiled (aborts by reason %v): FP trace coverage lost",
				seed, mask, after.AbortedBy)
		}
		if after.Iters == before.Iters {
			t.Errorf("seed %d mask %#x: no iteration retired inside a trace", seed, mask)
		}
	}
}

// TestFuzzCorpusEngagesCallTraces pins the call-loop corpus seeds to traces
// through calls: each must compile at least one trace whose recording holds
// a CALL, and retire loop iterations in compiled traces, under RunNative's
// thresholds. Like the FP sibling above, a wrapper around the registered
// compiler looks at what was recorded and is removed before the test returns.
func TestFuzzCorpusEngagesCallTraces(t *testing.T) {
	callCompiled := 0
	emu.RegisterTraceCompiler(func(req *emu.TraceRequest) (emu.TraceRunFunc, error) {
		run, err := jit.CompileTrace(req)
		if err == nil {
			for _, st := range req.Steps {
				if st.In.Op == x86.CALL {
					callCompiled++
					break
				}
			}
		}
		return run, err
	})
	defer emu.RegisterTraceCompiler(jit.CompileTrace)
	for _, raw := range pinnedCallLoopSeeds {
		seed, mask := decodeFuzzSeed(raw)
		if mask&FeatCallLoop == 0 {
			t.Fatalf("pinned call-loop seed %#x decodes to mask %#x", raw, mask)
		}
		p, err := GenerateWithMask(seed, mask)
		if err != nil {
			t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatalf("seed %d mask %#x: place: %v", seed, mask, err)
		}
		callCompiled = 0
		before := emu.ReadTraceStats()
		if _, _, err := RunNative(mem, entry, scratch, p, 3, 5); err != nil {
			t.Fatalf("seed %d mask %#x: run: %v", seed, mask, err)
		}
		after := emu.ReadTraceStats()
		if callCompiled == 0 {
			t.Errorf("seed %d mask %#x: no trace through a call compiled (aborts by reason %v): call trace coverage lost",
				seed, mask, after.AbortedBy)
		}
		if after.Iters == before.Iters {
			t.Errorf("seed %d mask %#x: no iteration retired inside a trace", seed, mask)
		}
	}
}

// TestFuzzCorpusEngagesPackedTraces pins the packed-loop corpus seeds to
// traces holding 16-byte accesses: each must compile at least one trace
// whose recording holds a MOVUPD, and retire loop iterations in compiled
// traces, under RunNative's thresholds. Like its siblings above, a wrapper
// around the registered compiler looks at what was recorded and is removed
// before the test returns.
func TestFuzzCorpusEngagesPackedTraces(t *testing.T) {
	packedCompiled := 0
	emu.RegisterTraceCompiler(func(req *emu.TraceRequest) (emu.TraceRunFunc, error) {
		run, err := jit.CompileTrace(req)
		if err == nil {
			for _, st := range req.Steps {
				if st.In.Op == x86.MOVUPD {
					packedCompiled++
					break
				}
			}
		}
		return run, err
	})
	defer emu.RegisterTraceCompiler(jit.CompileTrace)
	for _, raw := range pinnedPackedLoopSeeds {
		seed, mask := decodeFuzzSeed(raw)
		if mask&FeatPackedLoop == 0 {
			t.Fatalf("pinned packed-loop seed %#x decodes to mask %#x", raw, mask)
		}
		p, err := GenerateWithMask(seed, mask)
		if err != nil {
			t.Fatalf("seed %d mask %#x: generate: %v", seed, mask, err)
		}
		mem, entry, scratch, err := p.Place()
		if err != nil {
			t.Fatalf("seed %d mask %#x: place: %v", seed, mask, err)
		}
		packedCompiled = 0
		before := emu.ReadTraceStats()
		if _, _, err := RunNative(mem, entry, scratch, p, 3, 5); err != nil {
			t.Fatalf("seed %d mask %#x: run: %v", seed, mask, err)
		}
		after := emu.ReadTraceStats()
		if packedCompiled == 0 {
			t.Errorf("seed %d mask %#x: no trace with a 16-byte access compiled (aborts by reason %v): packed trace coverage lost",
				seed, mask, after.AbortedBy)
		}
		if after.Iters == before.Iters {
			t.Errorf("seed %d mask %#x: no iteration retired inside a trace", seed, mask)
		}
	}
}
