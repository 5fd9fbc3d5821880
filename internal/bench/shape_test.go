package bench

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestPaperShape asserts the qualitative results of Section VI: who wins,
// by roughly what factor, and where the crossovers fall. Absolute cycle
// counts come from the cost model, but these orderings are the claims the
// paper makes.
func TestPaperShape(t *testing.T) {
	w, err := NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	get := func(kind Kind, s Structure, m Mode, o Options) float64 {
		t.Helper()
		v, err := w.Prepare(kind, s, m, o)
		if err != nil {
			t.Fatalf("%v/%v/%v: %v", kind, s, m, err)
		}
		meas, err := w.MeasureRows(v, 2)
		if err != nil {
			t.Fatalf("%v/%v/%v: %v", kind, s, m, err)
		}
		return meas.CyclesPerElem
	}

	// --- Element kernel (Figure 9a) ---
	directNative := get(Element, Direct, Native, Options{})
	// "For the variant with the hard-coded stencil, we can observe no major
	// differences between the different modes."
	for _, m := range AllModes {
		v := get(Element, Direct, m, Options{})
		if v > directNative*1.25 || v < directNative*0.75 {
			t.Errorf("element/Direct/%v = %.2f strays from native %.2f", m, v, directNative)
		}
	}

	flatNative := get(Element, Flat, Native, Options{})
	if flatNative < directNative*1.5 {
		t.Errorf("generic flat structure should be much slower than hard-coded: %.2f vs %.2f",
			flatNative, directNative)
	}
	// "The parameter fixation at the level of LLVM-IR leads to the same
	// performance as the hard-coded stencil."
	flatFix := get(Element, Flat, LLVMFix, Options{})
	if flatFix > directNative*1.25 {
		t.Errorf("element/Flat/LLVM-fix %.2f should approach direct %.2f", flatFix, directNative)
	}
	// "The DBrew specialization has some overhead."
	flatDBrew := get(Element, Flat, DBrew, Options{})
	if flatDBrew <= directNative*1.1 {
		t.Errorf("element/Flat/DBrew %.2f should retain overhead over direct %.2f", flatDBrew, directNative)
	}
	if flatDBrew >= flatNative {
		t.Errorf("element/Flat/DBrew %.2f must beat the generic native %.2f", flatDBrew, flatNative)
	}

	// "Applying the LLVM optimizations on the top of the DBrew
	// specialization again leads to code with the same performance as the
	// hard-coded stencil." (sorted structure)
	sortedDBrewLLVM := get(Element, Sorted, DBrewLLVM, Options{})
	if sortedDBrewLLVM > directNative*1.15 {
		t.Errorf("element/Sorted/DBrew+LLVM %.2f should match direct %.2f", sortedDBrewLLVM, directNative)
	}
	// "The parameter fixation at LLVM-IR level has a high overhead [for the
	// sorted structure]... nested pointers... not handled."
	sortedFix := get(Element, Sorted, LLVMFix, Options{})
	if sortedFix < directNative*2.5 {
		t.Errorf("element/Sorted/LLVM-fix %.2f should remain far above direct %.2f (no specialization)",
			sortedFix, directNative)
	}
	// "The DBrew specialization has a lower overhead as for the flat
	// structure because the redundant multiplications are eliminated."
	sortedDBrew := get(Element, Sorted, DBrew, Options{})
	if sortedDBrew > flatDBrew*1.15 {
		t.Errorf("element/Sorted/DBrew %.2f should not exceed flat DBrew %.2f", sortedDBrew, flatDBrew)
	}

	// --- Line kernel (Figure 9b) ---
	lineDirect := get(Line, Direct, Native, Options{})
	// The compile-time vectorized kernel is the fastest configuration.
	if lineDirect >= directNative {
		t.Errorf("vectorized line kernel %.2f should beat the element kernel %.2f", lineDirect, directNative)
	}
	// "The code produced by DBrew is significantly slower as the original
	// code does not involve vectorization."
	lineDirectDBrew := get(Line, Direct, DBrew, Options{})
	if lineDirectDBrew < lineDirect*1.3 {
		t.Errorf("line/Direct/DBrew %.2f should be well above vectorized native %.2f", lineDirectDBrew, lineDirect)
	}
	// "Specialization at LLVM-IR level improves the performance, but is
	// still slower than the code with the hard-coded stencil as
	// vectorization is not performed."
	lineFlatFix := get(Line, Flat, LLVMFix, Options{})
	lineFlatNative := get(Line, Flat, Native, Options{})
	if lineFlatFix >= lineFlatNative {
		t.Errorf("line/Flat/LLVM-fix %.2f must improve on native %.2f", lineFlatFix, lineFlatNative)
	}
	if lineFlatFix <= lineDirect {
		t.Errorf("line/Flat/LLVM-fix %.2f should stay above the vectorized kernel %.2f", lineFlatFix, lineDirect)
	}
	// "Involving LLVM on the code produced by DBrew leads to performance
	// improvements, but does not reach the performance of the LLVM-IR
	// specialization as information about constant memory regions is not
	// preserved."
	lineFlatDBrew := get(Line, Flat, DBrew, Options{})
	lineFlatDL := get(Line, Flat, DBrewLLVM, Options{})
	if lineFlatDL >= lineFlatDBrew*1.05 {
		t.Errorf("line/Flat/DBrew+LLVM %.2f should improve on DBrew %.2f", lineFlatDL, lineFlatDBrew)
	}
	if lineFlatDL < lineFlatFix*0.95 {
		t.Errorf("line/Flat/DBrew+LLVM %.2f should not beat the LLVM-IR specialization %.2f", lineFlatDL, lineFlatFix)
	}
	// "For the sorted structure... the LLVM transformation applied on the
	// top of DBrew leads to the same performance as the specialization at
	// LLVM-IR level."
	lineSortedDL := get(Line, Sorted, DBrewLLVM, Options{})
	if lineSortedDL > lineFlatFix*1.25 {
		t.Errorf("line/Sorted/DBrew+LLVM %.2f should approach the flat LLVM-IR specialization %.2f",
			lineSortedDL, lineFlatFix)
	}

	// --- Section VI-B: forced vectorization ---
	vec, err := w.RunVectorization(2)
	if err != nil {
		t.Fatal(err)
	}
	if vec.ForcedVector.CyclesPerElem >= vec.ScalarFix.CyclesPerElem {
		t.Errorf("forced vectorization %.2f must beat the scalar specialization %.2f",
			vec.ForcedVector.CyclesPerElem, vec.ScalarFix.CyclesPerElem)
	}
	if vec.Ratio <= 1.0 {
		t.Errorf("forced (unaligned) vectorization should remain slower than GCC's aligned loop: ratio %.2f", vec.Ratio)
	}
	if vec.Ratio > 2.5 {
		t.Errorf("forced vectorization ratio %.2f too far from the paper's ~1.23", vec.Ratio)
	}
}

// TestFigure6Shapes checks the flag-cache effect at the IR level against the
// paper's listings.
func TestFigure6Shapes(t *testing.T) {
	w, err := NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	with, without, err := w.Figure6IR()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with, "icmp slt i64 %arg0, %arg1") {
		t.Errorf("flag-cache IR should contain the direct comparison:\n%s", with)
	}
	if strings.Count(with, "\n") > 7 {
		t.Errorf("flag-cache IR should be minimal (Figure 6c):\n%s", with)
	}
	if !strings.Contains(without, "xor") {
		t.Errorf("no-flag-cache IR should contain the SF^OF pattern (Figure 6b):\n%s", without)
	}
	if strings.Count(without, "\n") <= strings.Count(with, "\n") {
		t.Error("no-flag-cache IR must be larger than the cached form")
	}
}

// TestFigure8Shapes checks the code-listing comparison: DBrew materializes
// known values and keeps per-point address arithmetic; the LLVM backend
// folds them into addressing modes.
func TestFigure8Shapes(t *testing.T) {
	w, err := NewWorkload(649)
	if err != nil {
		t.Fatal(err)
	}
	d, l, err := w.Figure8Listings()
	if err != nil {
		t.Fatal(err)
	}
	dj := strings.Join(d, "\n")
	lj := strings.Join(l, "\n")
	// DBrew output: materialized displacements plus explicit adds.
	if !strings.Contains(dj, "mov rax, -0x1") || !strings.Contains(dj, "add rax, rcx") {
		t.Errorf("DBrew listing missing the materialize+add pattern of Figure 8:\n%s", dj)
	}
	if !strings.Contains(dj, "pxor") {
		t.Errorf("DBrew listing missing the pxor zero idiom:\n%s", dj)
	}
	// LLVM-post-processed output: folded addressing, shorter code.
	if !strings.Contains(lj, "8*rcx - 0x8") && !strings.Contains(lj, "8*rcx + 0x8") {
		t.Errorf("LLVM listing should fold displacements into addressing modes:\n%s", lj)
	}
	if len(l) >= len(d) {
		t.Errorf("LLVM-optimized listing (%d insts) should be shorter than DBrew's (%d)", len(l), len(d))
	}
	// Both keep exactly one multiplication (single coefficient group).
	if strings.Count(lj, "mulsd") != 1 {
		t.Errorf("expected exactly one mulsd in the optimized listing:\n%s", lj)
	}
}

// TestCompileTimeShape checks Figure 10's claim: a standalone DBrew
// transformation is significantly cheaper than the LLVM pipeline, and the
// LLVM time grows with code complexity.
func TestCompileTimeShape(t *testing.T) {
	w, err := NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	// The minimum of three compiles per row keeps one scheduler hiccup from
	// flipping an ordering.
	find := func(s Structure, m Mode) float64 {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			v, err := w.Prepare(Line, s, m, Options{})
			if err != nil {
				t.Fatalf("%v/%v: %v", s, m, err)
			}
			best = min(best, v.CompileTime)
		}
		return float64(best.Nanoseconds())
	}
	for _, s := range AllStructures {
		db := find(s, DBrew)
		lv := find(s, LLVM)
		if db >= lv {
			t.Errorf("%v: DBrew (%.0f ns) should be cheaper than the LLVM pipeline (%.0f ns)", s, db, lv)
		}
	}
	// LLVM compile time grows with code complexity (sorted > direct).
	if find(Sorted, LLVM) <= find(Direct, LLVM)/2 {
		t.Error("LLVM transformation time should grow with code complexity")
	}
}
