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
		if v != 0 {
			seen[v], seen[v+0.5] = true, true
		}
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

// replayLogged is the reference for replay with a penalty log: the block
// engine's order, every step's cost, then the penalty of each of the step's
// logged accesses, for iters iterations and steps more; logged accesses of
// the partial iteration at a step at or past steps are not charged.
func replayLogged(cyc float64, costs []float64, iters, steps uint64, log []uint64, sites []TraceSite, cost *CostModel) float64 {
	for it := uint64(0); it <= iters; it++ {
		n := uint64(len(costs))
		if it == iters {
			n = steps
		}
		for j := uint64(0); j < n; j++ {
			cyc += costs[j]
			for e := 0; e < len(log); e += 3 {
				if s := sites[log[e+1]]; log[e] == it && uint64(s.Step) == j {
					cyc += cost.MemPenalty(log[e+2], int(s.Size), s.Write)
				}
			}
		}
	}
	return cyc
}

// randomLog draws sites over the steps and a log of iters iterations (and
// the partial one) in which each iteration logs each site with probability
// dense/8, at addresses that are aligned, misaligned within a line or split
// across one.
func randomLog(rng *rand.Rand, steps int, iters uint64, dense int) ([]uint64, []TraceSite) {
	var sites []TraceSite
	for j := 0; j < steps; j++ {
		for k := rng.Intn(3); k > 0; k-- {
			size := []uint8{2, 4, 8, 16}[rng.Intn(4)]
			sites = append(sites, TraceSite{Step: uint32(j), Size: size, Write: rng.Intn(2) == 0})
		}
	}
	var log []uint64
	for it := uint64(0); it <= iters; it++ {
		for k := range sites {
			if rng.Intn(8) < dense {
				addr := uint64(0x10000 + 64*rng.Intn(100) + []int{0, 8, 60, 56, 33}[rng.Intn(5)])
				log = append(log, it, uint64(k), addr)
			}
		}
	}
	return log, sites
}

// TestReplayPenaltiesMatchSequential compares replay with a penalty log with
// the block engine's order of additions bit for bit: Haswell step costs,
// logs from empty to every site in every iteration, starts across the
// binades of replayStarts, side exits at every step of the last iteration,
// and each trial continued on the same entry to exercise the cached binade.
// Besides the Haswell model it runs models whose penalties are fractions,
// so that their counts of ulps round and tie in other binades than the step
// costs', and odd trials keep one logged iteration in seven, so that runs
// of unlogged iterations lie between logged ones where a binade ends.
func TestReplayPenaltiesMatchSequential(t *testing.T) {
	table := haswellCosts()
	models := []*CostModel{
		HaswellModel(),
		{LineSize: 64, SplitPenalty: 0.5, UnalignedVecPenalty: 0.25},
		{LineSize: 64, SplitPenalty: 0.3, UnalignedVecPenalty: 1e8},
		{LineSize: 48, SplitPenalty: 3, UnalignedVecPenalty: 0.5},
	}
	rng := rand.New(rand.NewSource(2))
	for mi, model := range models {
		trials := 30
		if mi > 0 {
			trials = 8
		}
		for _, start := range replayStarts() {
			for trial := 0; trial < trials; trial++ {
				costs := make([]float64, 1+rng.Intn(12))
				for i := range costs {
					costs[i] = table[rng.Intn(len(table))]
				}
				te := &traceEntry{costs: costs, T: uint64(len(costs))}
				cyc := start
				for round := 0; round < 2; round++ {
					iters := uint64(rng.Intn(80))
					steps := uint64(rng.Intn(len(costs) + 1))
					log, sites := randomLog(rng, len(costs), iters, trial%9)
					if trial%2 == 1 {
						var sparse []uint64
						for e := 0; e < len(log); e += 3 {
							if log[e]%7 == 3 {
								sparse = append(sparse, log[e:e+3]...)
							}
						}
						log = sparse
					}
					want := replayLogged(cyc, costs, iters, steps, log, sites, model)
					got := te.replay(cyc, iters, steps, log, sites, model)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("model %+v, start %v, costs %v, %d iterations + %d steps, %d entries: got %v (%#x), want %v (%#x)",
							*model, cyc, costs, iters, steps, len(log)/3, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					cyc = got
				}
			}
		}
	}
}

// TestReplayPenaltiesUseBinade pins that logged iterations take the
// per-binade rule: a run of 1000 iterations, each logging a misaligned
// 16-byte load, from 2^30 adds its iterations as counts of ulps, leaving the
// binade cached, and matches the sequential sum.
func TestReplayPenaltiesUseBinade(t *testing.T) {
	costs := []float64{1, 0.5, 0.83, 1.5}
	te := &traceEntry{costs: costs, T: uint64(len(costs))}
	sites := []TraceSite{{Step: 0, Size: 16}}
	var log []uint64
	for it := uint64(0); it < 1000; it++ {
		log = append(log, it, 0, 0x10008)
	}
	start := math.Ldexp(1, 30)
	cyc, n, rest := te.binadeIters(start, 0, 1000, log, sites, HaswellModel())
	if n != 1000 || len(rest) != 0 || te.qExp != 1023+30 {
		t.Fatalf("binadeIters added %d iterations, left %d words, binade %d; want all 1000 in binade %d", n, len(rest), te.qExp, 1023+30)
	}
	if want := replayLogged(start, costs, 1000, 0, log, sites, HaswellModel()); cyc != want {
		t.Fatalf("got %v, want %v", cyc, want)
	}
}

// BenchmarkReplayIters times the replay of one trace run: the 13-step
// packed line loop of 63 iterations with its four misaligned 16-byte loads
// logged per iteration ("logged", through replay), and without a log
// ("clean", through replayIters, which replay calls for a run that logged
// nothing); "from 0" starts every run at Cycles = 0, as a machine reset
// before each call does, climbing through the low binades, and "from 2^30"
// runs inside one binade.
func BenchmarkReplayIters(b *testing.B) {
	m := HaswellModel()
	costs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 0.5, 1, 0.33, 0.33, 0.5}
	sites := []TraceSite{{Step: 0, Size: 16}, {Step: 1, Size: 16}, {Step: 3, Size: 16}, {Step: 5, Size: 16}, {Step: 8, Size: 16, Write: true}}
	const iters = 63
	var log []uint64
	for it := uint64(0); it < iters; it++ {
		for k := uint64(0); k < 4; k++ {
			log = append(log, it, k, 0x10008+16*it+1000*k)
		}
	}
	for _, c := range []struct {
		name  string
		start float64
		log   []uint64
	}{
		{"clean from 0", 0, nil},
		{"clean from 2^30", math.Ldexp(1, 30), nil},
		{"logged from 0", 0, log},
		{"logged from 2^30", math.Ldexp(1, 30), log},
	} {
		b.Run(c.name, func(b *testing.B) {
			te := &traceEntry{costs: costs, T: uint64(len(costs))}
			var sink float64
			for i := 0; i < b.N; i++ {
				if c.log == nil {
					sink += te.replayIters(c.start, iters)
				} else {
					sink += te.replay(c.start, iters, 0, c.log, sites, m)
				}
			}
			if sink == 0 {
				b.Fatal("no cycles")
			}
		})
	}
}
