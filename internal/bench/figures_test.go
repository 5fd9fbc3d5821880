package bench

import (
	"strings"
	"testing"
)

func TestFigureRunnersAndFormatting(t *testing.T) {
	w, err := NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := w.RunFigure9(Element, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Bars) != 15 {
		t.Fatalf("15 bars expected, got %d", len(fig.Bars))
	}
	out := fig.Format()
	for _, want := range []string{"Figure 9a", "Direct", "SortedStruct", "DBrew+LLVM"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
	if b := fig.Get(Flat, DBrew); b == nil || b.CycPerEl <= 0 {
		t.Error("Get(Flat, DBrew) broken")
	}
	if fig.Get(Flat, Mode(99)) != nil {
		t.Error("Get with invalid mode must return nil")
	}

	vec, err := w.RunVectorization(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vec.Format(), "forced/aligned ratio") {
		t.Error("vectorization format broken")
	}

	ab, err := w.RunAblations(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != 5 || ab[0].Delta != 0 {
		t.Errorf("ablation rows: %+v", ab)
	}
	if !strings.Contains(FormatAblations(ab), "no flag cache") {
		t.Error("ablation format broken")
	}
}

func TestModeAndStructureStrings(t *testing.T) {
	if Native.String() != "Native" || DBrewLLVM.String() != "DBrew+LLVM" {
		t.Error("mode names")
	}
	if Flat.String() != "Struct" || Sorted.String() != "SortedStruct" {
		t.Error("structure names")
	}
	if Element.String() != "element" || Line.String() != "line" {
		t.Error("kind names")
	}
}

func TestPassAblationAndDisassemble(t *testing.T) {
	w, err := NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := w.RunPassAblation(1, DBrewLLVM)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("8 pipeline variants expected, got %d", len(rows))
	}
	// Rows are sorted ascending; -O0 must be the most expensive variant for
	// DBrew output (no cleanup at all).
	if rows[len(rows)-1].Pass != "no optimization (-O0)" {
		t.Errorf("-O0 should rank last, got %q", rows[len(rows)-1].Pass)
	}
	out := FormatPassAblation(rows, DBrewLLVM)
	if !strings.Contains(out, "cyc/elem") || !strings.Contains(out, "no inlining") {
		t.Errorf("format broken:\n%s", out)
	}

	v, err := w.Prepare(Element, Flat, DBrewLLVM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lst, err := w.Disassemble(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(lst) < 3 {
		t.Errorf("disassembly too short: %v", lst)
	}
	foundRet := false
	for _, line := range lst {
		if strings.Contains(line, "ret") {
			foundRet = true
		}
	}
	if !foundRet {
		t.Error("disassembly must contain a ret")
	}
}

func TestFigure7Layouts(t *testing.T) {
	w, err := NewWorkload(33)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Figure7Layouts()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"points = 4", "f: 0.25", "groups = 1", ".factor = 0.25", "dx: -1"} {
		if !strings.Contains(out, want) {
			t.Errorf("layout dump missing %q:\n%s", want, out)
		}
	}
}
