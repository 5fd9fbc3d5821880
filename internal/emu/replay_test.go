package emu

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Tests for traceEntry.replayIters, the per-binade replay of a trace run's
// modelled cycles. The reference is the loop it replaces: every step cost
// added in program order, once per iteration, as the interpreter adds them.

func replaySequential(cyc float64, costs []float64, iters uint64) float64 {
	for it := uint64(0); it < iters; it++ {
		for _, c := range costs {
			cyc += c
		}
	}
	return cyc
}

// haswellCosts is every cost HaswellModel charges a step: the table values,
// their memory forms (+0.5) and the default.
func haswellCosts() []float64 {
	c := HaswellModel()
	seen := map[float64]bool{c.def: true, c.def + 0.5: true}
	for _, v := range c.opCost {
		seen[v], seen[v+0.5] = true, true
	}
	out := make([]float64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// replayStarts are the start values that stress the rule's edges: zero and
// below one (the step-by-step range), just below powers of two (the crossing
// iteration), 2^52 and above, where the 0.5 costs tie and where small costs
// round to nothing, and the top of the finite range.
func replayStarts() []float64 {
	starts := []float64{0, 0.33, 0.999, 1, 3.25, 1000.17}
	for _, k := range []int{1, 10, 20, 31, 52, 53, 54, 60} {
		p := math.Ldexp(1, k)
		ulp := math.Ldexp(1, k-53)
		starts = append(starts, p, math.Nextafter(p, 0), p-3*ulp, p-17.3, p-0.5, p-1)
	}
	return append(starts, math.Ldexp(1, 60)+12345*256, math.MaxFloat64/2, math.MaxFloat64)
}

// checkReplay runs replayIters on a fresh entry and then again, from where
// the first call ended, on the same entry — as consecutive runs of one trace
// reuse the cached binade — and compares both results bit for bit.
func checkReplay(t *testing.T, cyc float64, costs []float64, iters, more uint64) {
	t.Helper()
	te := &traceEntry{costs: costs, T: uint64(len(costs))}
	for _, n := range []uint64{iters, more} {
		want := replaySequential(cyc, costs, n)
		got := te.replayIters(cyc, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("start %v (%#x), costs %v, %d iterations: got %v (%#x), want %v (%#x)",
				cyc, math.Float64bits(cyc), costs, n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		cyc = got
	}
}

func TestReplayItersMatchesSequential(t *testing.T) {
	table := haswellCosts()
	rng := rand.New(rand.NewSource(1))
	iterCounts := []uint64{0, 1, 2, 3, 7, 64, 1000, 4099}
	trials := 0
	for _, start := range replayStarts() {
		for trial := 0; trial < 40; trial++ {
			costs := make([]float64, 1+rng.Intn(40))
			for i := range costs {
				costs[i] = table[rng.Intn(len(table))]
			}
			iters := iterCounts[trial%len(iterCounts)]
			checkReplay(t, start, costs, iters, uint64(rng.Intn(300)))
			trials++
		}
	}
	// Random starts over the whole range in which cycles grow.
	for ; trials < 20000; trials++ {
		costs := make([]float64, 1+rng.Intn(12))
		for i := range costs {
			costs[i] = table[rng.Intn(len(table))]
		}
		start := math.Ldexp(rng.Float64(), rng.Intn(70))
		checkReplay(t, start, costs, uint64(rng.Intn(200)), uint64(rng.Intn(200)))
	}
}

// TestReplayItersUsesBinade pins that the per-binade rule is what runs for
// Haswell costs in an ordinary binade, and that a tie in the binade turns it
// off: 0.5 cycles is half an ulp in [2^52, 2^53).
func TestReplayItersUsesBinade(t *testing.T) {
	costs := []float64{0.33, 0.5, 0.83, 1, 25}
	te := &traceEntry{costs: costs, T: uint64(len(costs))}
	te.replayIters(600, 10) // 600 + 10·27.66 stays below 1024
	if te.qExp != 1023+9 || te.q == noQ {
		t.Fatalf("binade of 600: qExp %d, q %d; want exponent %d and a cost", te.qExp, te.q, 1023+9)
	}
	te.replayIters(math.Ldexp(1, 52), 100)
	if te.qExp != 1023+52 || te.q != noQ {
		t.Fatalf("binade of 2^52: qExp %d, q %d; want exponent %d and noQ", te.qExp, te.q, 1023+52)
	}
}

// FuzzReplayIters compares replayIters with the sequential loop for any
// start value, iteration count and cost vector drawn from the Haswell table
// and a few costs outside it (zero, tiny, huge, negative, not finite).
func FuzzReplayIters(f *testing.F) {
	f.Add(uint64(0), uint16(5), []byte{0, 1, 2})
	f.Add(math.Float64bits(math.Ldexp(1, 20)-1), uint16(100), []byte{3, 4, 5, 6})
	f.Add(math.Float64bits(math.Ldexp(1, 52)), uint16(300), []byte{7, 8})
	f.Add(math.Float64bits(math.Ldexp(1, 53)-2), uint16(50), []byte{9, 10, 11})
	table := append(haswellCosts(), 0, 1e-300, math.Ldexp(1, -60), 1e9, math.Ldexp(1, 60),
		-0.5, math.Inf(1), math.NaN())
	f.Fuzz(func(t *testing.T, start uint64, iters uint16, sel []byte) {
		if len(sel) == 0 || len(sel) > 32 {
			return
		}
		costs := make([]float64, len(sel))
		for i, s := range sel {
			costs[i] = table[int(s)%len(table)]
		}
		checkReplay(t, math.Float64frombits(start), costs, uint64(iters), uint64(iters)/3)
	})
}
