package tier

import (
	"fmt"
	"strings"

	"repro/internal/emu"
	"repro/internal/trace"
)

// HistogramData converts the log2-bucketed latency snapshot into the
// cumulative form the Prometheus exposition format wants: bucket i's upper
// bound is 2^i microseconds expressed in seconds, the open-ended last bucket
// folds into +Inf. The sample sum is estimated from bucket upper bounds (the
// histogram does not track exact sums).
func (s HistogramSnapshot) HistogramData() trace.HistogramData {
	var d trace.HistogramData
	var cum uint64
	for i := 0; i < histBuckets-1; i++ {
		cum += s[i]
		d.Buckets = append(d.Buckets, trace.HistogramBucket{
			UpperBound:      float64(uint64(1)<<uint(i)) / 1e6,
			CumulativeCount: cum,
		})
		d.SampleSum += float64(s[i]) * float64(uint64(1)<<uint(i)) / 1e6
	}
	// Open-ended bucket: count it toward +Inf, estimate with its lower bound.
	d.SampleCount = cum + s[histBuckets-1]
	d.SampleSum += float64(s[histBuckets-1]) * float64(uint64(1)<<uint(histBuckets-2)) / 1e6
	return d
}

// RegisterMetrics exports the tiered-execution counters into reg under the
// given metric-name prefix (e.g. "dbrew_tier"). snapshot is polled on every
// scrape; ok == false (tiering disabled) reads as all-zero/empty series, so
// a registry built once stays valid across EnableTiering.
func RegisterMetrics(reg *trace.Registry, prefix string, snapshot func() (Stats, bool)) {
	grab := func() Stats {
		st, ok := snapshot()
		if !ok {
			return Stats{}
		}
		return st
	}
	reg.Counter(prefix+"_promotions_total", "Tier promotions installed (all tiers).",
		func() float64 {
			var n uint64
			for _, f := range grab().Funcs {
				for _, p := range f.Promotions {
					n += p
				}
			}
			return float64(n)
		})
	reg.Counter(prefix+"_deopts_total", "Invalidation-driven drops back to tier 0.",
		func() float64 {
			var n uint64
			for _, f := range grab().Funcs {
				n += f.Deopts
			}
			return float64(n)
		})
	reg.Counter(prefix+"_compile_errors_total", "Failed promotion compiles.",
		func() float64 {
			var n uint64
			for _, f := range grab().Funcs {
				n += f.CompileErrors
			}
			return float64(n)
		})
	reg.GaugeVec(prefix+"_funcs", "Registered functions currently at each tier.",
		func() []trace.Sample {
			var counts [NumLevels]int
			for _, f := range grab().Funcs {
				if f.Level >= 0 && int(f.Level) < NumLevels {
					counts[f.Level]++
				}
			}
			out := make([]trace.Sample, 0, NumLevels)
			for l, c := range counts {
				out = append(out, trace.Sample{
					Label: fmt.Sprintf(`tier="%d"`, l),
					Value: float64(c),
				})
			}
			return out
		})
	reg.Histogram(prefix+"_compile_seconds", "Promotion compile latency.",
		func() trace.HistogramData {
			return grab().CompileLatency().HistogramData()
		})
	// Per-tier split of the same latencies: the registry has no labeled
	// histograms, so each target tier gets its own metric family. The
	// tier-1 family is where the fastpath baseline backend's compile-cost
	// win shows up against the tier-2 full pipeline.
	reg.Histogram(prefix+"_tier1_compile_seconds", "Tier-1 (baseline backend) promotion compile latency.",
		func() trace.HistogramData {
			return grab().CompileLatencyFor(Tier1).HistogramData()
		})
	reg.Histogram(prefix+"_tier2_compile_seconds", "Tier-2 (specialize+optimize) promotion compile latency.",
		func() trace.HistogramData {
			return grab().CompileLatencyFor(Tier2).HistogramData()
		})
	// The emulator's inner trace tier: hot superblock loops compiled while
	// functions are still at tier 0.
	reg.Counter(prefix+"_traces_compiled_total", "Emulator superblock traces compiled (including O3 recompiles).",
		func() float64 {
			t := grab().Trace
			return float64(t.Compiled + t.CompiledO3)
		})
	reg.Counter(prefix+"_traces_aborted_total", "Emulator trace heads blacklisted: recordings or compiles aborted, traces retired.",
		func() float64 { return float64(grab().Trace.Aborted) })
	// The same count by reason, one family each (the registry has no
	// labels): which instruction mix the trace tier is turning away.
	for r := emu.TraceAbortReason(0); r < emu.NumTraceAbortReasons; r++ {
		name := strings.ReplaceAll(r.String(), "-", "_")
		reg.Counter(prefix+"_traces_aborted_"+name+"_total", "Emulator trace heads blacklisted for reason "+r.String()+".",
			func() float64 { return float64(grab().Trace.AbortedBy[r]) })
	}
	reg.Counter(prefix+"_trace_runs_total", "Emulator trace executions.",
		func() float64 { return float64(grab().Trace.Runs) })
	reg.Counter(prefix+"_trace_iterations_total", "Loop iterations completed inside compiled traces.",
		func() float64 { return float64(grab().Trace.Iters) })
	reg.Counter(prefix+"_trace_side_exits_total", "Trace runs that deoptimized through a guard or memory side exit.",
		func() float64 { return float64(grab().Trace.SideExits) })
	// The native backend layered on the trace tier: superblocks compiled
	// all the way to host x86-64 and stitched by the link cache.
	reg.Counter(prefix+"_trace_native_compiles_total", "Emulator traces compiled to native x86-64 (vs. bytecode-VM fallback).",
		func() float64 { return float64(grab().Trace.NativeCompiled) })
	reg.Counter(prefix+"_trace_native_deopts_total", "Native trace runs that reconstructed state through an exit stub.",
		func() float64 { return float64(grab().Trace.NativeDeopts) })
	reg.Counter(prefix+"_trace_links_total", "Guard-exit handoffs dispatched through the trace-to-trace link cache.",
		func() float64 { return float64(grab().Trace.Links) })
	reg.Counter(prefix+"_trace_link_invalidations_total", "Cached trace links dropped by code-invalidation epoch bumps.",
		func() float64 { return float64(grab().Trace.LinkInvalidations) })
}
