package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"
)

func tinyEnv(t *testing.T) *env {
	return &env{seed: 1, seconds: 1, tiny: true, clients: min(runtime.NumCPU(), 4), tmp: t.TempDir()}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, twice
// each, and holds the output to the contract in BENCHMARK.json: the declared
// names and units and no others, no failed operation, and bit-equal
// deterministic metrics across two runs of one seed.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(man.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range man.EndToEnd {
		endToEnd[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range man.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	check := func(t *testing.T, rep *report, declared map[string]string) {
		t.Helper()
		if rep.Failed != 0 || !rep.Correct || rep.Attempted < 1 {
			t.Errorf("attempted %d, failed %d, correct %v: %v", rep.Attempted, rep.Failed, rep.Correct, rep.Failures)
		}
		for n, m := range rep.Metrics {
			if !name.MatchString(n) {
				t.Errorf("metric name %q is not a valid name", n)
			}
			if unit, ok := declared[n]; !ok {
				t.Errorf("metric %s is not declared in BENCHMARK.json", n)
			} else if unit != m.Unit {
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", n, m.Unit, unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("metric %s = %v", n, m.Value)
			}
		}
		for n := range declared {
			if _, ok := rep.Metrics[n]; !ok {
				t.Errorf("declared metric %s was not emitted", n)
			}
		}
	}

	for i, w := range workloads {
		w := w
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			var plain, traced [2]*report
			for i := range plain {
				var err error
				if plain[i], _, err = runWorkload(&w, tinyEnv(t), false); err != nil {
					t.Fatal(err)
				}
				if traced[i], _, err = runWorkload(&w, tinyEnv(t), true); err != nil {
					t.Fatal(err)
				}
				check(t, plain[i], endToEnd)
				check(t, traced[i], perLayer)
				for n, m := range plain[i].Metrics {
					if m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", n, m.Value)
					}
				}
			}
			same := func(reps [2]*report, names ...string) {
				for _, n := range names {
					if a, b := reps[0].Metrics[n].Value, reps[1].Metrics[n].Value; a != b {
						t.Errorf("%s differs between two runs of one seed: %v and %v", n, a, b)
					}
				}
			}
			same(plain, "code_bytes", "code_cycles_ratio")
			same(traced, "emu.insts_retired", "dbrew.insts_emitted", "lift.ir_insts", "opt.ir_insts_after", "jit.code_bytes", "tier.promotions")
			if w.name == "serve_cold" {
				same(traced, "codecache.misses", "service.src_compile")
				m := traced[0].Metrics
				if m["codecache.misses"].Value != m["service.requests"].Value || m["service.src_compile"].Value != m["service.requests"].Value {
					t.Errorf("serve_cold: %v requests, %v cache misses, %v compiled; all three must agree",
						m["service.requests"].Value, m["codecache.misses"].Value, m["service.src_compile"].Value)
				}
			}
			shape(t, w.name, traced[0].Metrics)
		})
	}
}

// shape asserts that each workload stresses the layers it exists for.
func shape(t *testing.T, workload string, m map[string]metric) {
	v := func(name string) float64 { return m[name].Value }
	switch workload {
	case "compile_baseline":
		if v("engine.compile_us_dbrew") <= 0 || v("engine.compile_us_fastpath") <= 0 || v("x86.insts_decoded") <= 0 || v("dbrew.fallbacks") != 0 {
			t.Errorf("compile_baseline: dbrew %v us, fastpath %v us, %v instructions decoded, %v fallbacks",
				v("engine.compile_us_dbrew"), v("engine.compile_us_fastpath"), v("x86.insts_decoded"), v("dbrew.fallbacks"))
		}
	case "compile_llvm":
		if v("engine.compile_us_llvm") <= 0 || v("engine.compile_us_llvm_fix") <= 0 || v("opt.fix_us") <= 0 {
			t.Errorf("compile_llvm: llvm %v us, llvm_fix %v us, fix stage %v us",
				v("engine.compile_us_llvm"), v("engine.compile_us_llvm_fix"), v("opt.fix_us"))
		}
	case "compile_dbrew_llvm":
		if r := v("engine.stage_sum_ratio"); r < 0.8 || r > 1.2 { // 0.9–1.1 at full scale; tiny rows are noisier
			t.Errorf("engine.stage_sum_ratio = %v", r)
		}
	case "run_loops":
		if v("jit.trace_native") <= 0 || v("emu.trace_iters") <= 0 {
			t.Errorf("run_loops ran no native traces: %v compiled, %v iterations", v("jit.trace_native"), v("emu.trace_iters"))
		}
	case "tier_warmup":
		if v("tier.promotions") != 2 {
			t.Errorf("tier.promotions = %v per function, want 2", v("tier.promotions"))
		}
	case "serve_hits":
		if v("service.src_compile") != 0 || v("service.src_memory") <= 0 || v("service.src_disk") <= 0 {
			t.Errorf("serve_hits sources: memory %v, disk %v, compile %v", v("service.src_memory"), v("service.src_disk"), v("service.src_compile"))
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the acceptance driver uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
	if p, beyond := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 0.95); p != 19 || beyond != 1 {
		t.Errorf("p95(1..20) = %v with %d beyond, want 19 with 1", p, beyond)
	}
}

func TestVerdict(t *testing.T) {
	s := func(med, q1, q3 float64) summary {
		return summary{Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, N: 10}
	}
	for _, c := range []struct {
		a, b  summary
		lower bool
		want  string
	}{
		{s(100, 99, 101), s(103, 102, 104), true, "unchanged"},
		{s(100, 99, 101), s(115, 114, 116), true, "regressed"},
		{s(100, 99, 101), s(85, 84, 86), true, "improved"},
		{s(100, 99, 101), s(85, 84, 86), false, "regressed"},
		{s(100, 90, 105), s(130, 129, 131), true, "unresolved"},
	} {
		if got, _ := verdictOf(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("verdictOf(%v -> %v, lower=%v) = %s, want %s", c.a.Median, c.b.Median, c.lower, got, c.want)
		}
	}
}
