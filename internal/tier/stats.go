package tier

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/emu"
)

// Level is an execution tier.
type Level int32

// The three execution tiers.
const (
	// Tier0 interprets the original machine code on the emulator: zero
	// compile cost, slowest per call.
	Tier0 Level = iota
	// Tier1 runs the lightweight specialization (DBrew alone): fast to
	// compile, specialized code that is not yet optimized.
	Tier1
	// Tier2 runs the full specialize + optimize pipeline (DBrew + opt.O3):
	// expensive to compile, fastest code.
	Tier2
	// NumLevels is the tier count.
	NumLevels = 3
)

// String names the tier.
func (l Level) String() string {
	switch l {
	case Tier0:
		return "tier0/interp"
	case Tier1:
		return "tier1/dbrew"
	case Tier2:
		return "tier2/opt"
	}
	return fmt.Sprintf("tier%d", int32(l))
}

// histBuckets is the compile-latency bucket count: bucket i holds compiles
// whose latency is in [2^(i-1), 2^i) microseconds, with bucket 0 for <1 µs
// and the last bucket open-ended.
const histBuckets = 20

// LatencyHistogram is a concurrency-safe log2-bucketed histogram of compile
// latencies.
type LatencyHistogram struct {
	buckets [histBuckets]atomic.Uint64
}

// Add records one latency.
func (h *LatencyHistogram) Add(d time.Duration) {
	us := d.Microseconds()
	i := 0
	if us > 0 {
		i = bits.Len64(uint64(us))
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
}

// Snapshot copies the current counts.
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range s {
		s[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a LatencyHistogram.
type HistogramSnapshot [histBuckets]uint64

// Merge adds the counts of o into s.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s {
		s[i] += o[i]
	}
}

// Count returns the total number of recorded latencies.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s {
		n += c
	}
	return n
}

// String renders the non-empty buckets as "≤1µs:2 ≤64µs:1 ...".
func (s HistogramSnapshot) String() string {
	var b strings.Builder
	for i, c := range s {
		if c == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		// Bucket i holds latencies in [2^(i-1), 2^i) µs; bucket 0 is <1 µs.
		upper := time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		fmt.Fprintf(&b, "<%v:%d", upper, c)
	}
	if b.Len() == 0 {
		return "(empty)"
	}
	return b.String()
}

// FuncStats is a snapshot of one handle's counters.
type FuncStats struct {
	Name     string
	Level    Level  // currently installed tier
	Entry    uint64 // currently installed code address
	CodeSize int    // size of the installed code (0 at tier 0)
	Calls    uint64 // dispatched calls since registration or last deopt
	Cycles   uint64 // accumulated modelled cycles since last deopt
	Insts    uint64 // emulated instructions retired since last deopt
	// Promotions[l] counts installs of tier l.
	Promotions [NumLevels]uint64
	// Deopts counts invalidation-driven drops back to tier 0.
	Deopts uint64
	// CompileErrors counts failed promotion compiles.
	CompileErrors uint64
	// CompileTime is the total wall-clock time spent compiling.
	CompileTime time.Duration
	// TimeInTier accumulates wall-clock residency per tier.
	TimeInTier [NumLevels]time.Duration
	// CompileLatency is the per-promotion latency histogram, merged across
	// target tiers.
	CompileLatency HistogramSnapshot
	// CompileLatencyByTier splits the same promotions by target tier, so a
	// cheap tier-1 rewrite and an expensive tier-2 optimization are visible
	// as separate distributions. Index Tier0 stays empty.
	CompileLatencyByTier [NumLevels]HistogramSnapshot
}

// String summarizes the snapshot on one line.
func (s FuncStats) String() string {
	return fmt.Sprintf("%s: %v, calls %d, promotions %d/%d, deopts %d, compile %v (errors %d)",
		s.Name, s.Level, s.Calls, s.Promotions[Tier1], s.Promotions[Tier2],
		s.Deopts, s.CompileTime.Round(time.Microsecond), s.CompileErrors)
}

// Stats snapshots a whole manager.
type Stats struct {
	Funcs []FuncStats
	// Trace is the process-wide trace-tier snapshot: tier-0 dispatch runs
	// the emulator, whose block engine promotes hot loops to compiled
	// superblock traces on its own. These counters expose that inner tier.
	Trace emu.TraceStats
}

// CompileLatency merges every function's histogram.
func (s Stats) CompileLatency() HistogramSnapshot {
	var h HistogramSnapshot
	for _, f := range s.Funcs {
		h.Merge(f.CompileLatency)
	}
	return h
}

// CompileLatencyFor merges every function's histogram for one target tier.
func (s Stats) CompileLatencyFor(l Level) HistogramSnapshot {
	var h HistogramSnapshot
	if l < 0 || l >= NumLevels {
		return h
	}
	for _, f := range s.Funcs {
		h.Merge(f.CompileLatencyByTier[l])
	}
	return h
}

// String renders a small per-function table plus the compile latency and
// trace-tier counters.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %8s %6s %6s %6s %12s  %s\n",
		"function", "tier", "calls", "promo1", "promo2", "deopt", "compile", "time-in-tier (0/1/2)")
	for _, f := range s.Funcs {
		fmt.Fprintf(&b, "%-16s %-12s %8d %6d %6d %6d %12v  %v/%v/%v\n",
			f.Name, f.Level, f.Calls, f.Promotions[Tier1], f.Promotions[Tier2], f.Deopts,
			f.CompileTime.Round(time.Microsecond),
			f.TimeInTier[0].Round(time.Microsecond),
			f.TimeInTier[1].Round(time.Microsecond),
			f.TimeInTier[2].Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "compile latency: %v\n", s.CompileLatency())
	fmt.Fprintf(&b, "compile latency tier1: %v\n", s.CompileLatencyFor(Tier1))
	fmt.Fprintf(&b, "compile latency tier2: %v\n", s.CompileLatencyFor(Tier2))
	fmt.Fprintf(&b, "emulator traces: %d compiled (%d at O3), %d aborted, %d runs, %d iterations, %d side exits\n",
		s.Trace.Compiled, s.Trace.CompiledO3, s.Trace.Aborted,
		s.Trace.Runs, s.Trace.Iters, s.Trace.SideExits)
	return b.String()
}

// Stats snapshots the handle's counters. TimeInTier includes the residency
// of the current tier up to now.
func (f *Func) Stats() FuncStats {
	st := f.active.Load()
	out := FuncStats{
		Name:     f.name,
		Level:    st.level,
		Entry:    st.entry,
		CodeSize: st.size,
		Calls:    f.calls.Load(),
		Cycles:   f.cycles.Load(),
		Insts:    f.insts.Load(),
	}
	for l := range f.hist {
		out.CompileLatencyByTier[l] = f.hist[l].Snapshot()
		out.CompileLatency.Merge(out.CompileLatencyByTier[l])
	}
	f.statsMu.Lock()
	out.Promotions = f.promotions
	out.Deopts = f.deopts
	out.CompileErrors = f.compileErrs
	out.CompileTime = f.compileTime
	out.TimeInTier = f.timeIn
	out.TimeInTier[st.level] += time.Since(f.enteredAt)
	f.statsMu.Unlock()
	return out
}

// emuF64 reinterprets an XMM low lane as a float64.
func emuF64(bits64 uint64) float64 { return math.Float64frombits(bits64) }
