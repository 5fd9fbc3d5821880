package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/emu"
)

// env is what one run of one workload is given: everything that varies
// between runs comes from here, and the program under test sees only the
// inputs generated from it.
type env struct {
	seed    int64
	seconds float64
	tiny    bool // smoke scale: small program sets and fixed operation counts
	clients int
	tmp     string // scratch directory inside the checkout, removed at exit
	cal     calibrator
}

// timed runs f on the calling goroutine, while nothing else of the program
// runs, and returns its duration at nominal machine speed (see calib.go). The
// factor is taken before f starts, outside the timed section.
func (e *env) timed(f func()) float64 {
	factor := e.cal.factor()
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds() * factor
}

// budget is the length of a measured phase that gets share of the run.
func (e *env) budget(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// pick returns full at benchmark scale and small at tiny scale.
func (e *env) pick(full, small int) int {
	if e.tiny {
		return small
	}
	return full
}

// recorder collects the per-operation samples of one measured phase, in
// seconds at nominal machine speed.
type recorder struct {
	rows      map[string][]float64 // seconds per operation, by row
	order     []string
	groups    map[string]string // row -> group, for rows that have one
	rates     []float64         // operations per second of each pass
	passOps   int               // successful operations and their summed time
	passBusy  float64           // since the last endPass
	attempted int
	failed    int
	failures  []string
}

func newRecorder() *recorder {
	return &recorder{rows: map[string][]float64{}, groups: map[string]string{}}
}

// op records one attempted operation on row; err != nil counts it as failed.
func (r *recorder) op(row string, sec float64, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, row+": "+err.Error())
		}
		return
	}
	if _, ok := r.rows[row]; !ok {
		r.order = append(r.order, row)
	}
	r.rows[row] = append(r.rows[row], sec)
	r.passOps++
	r.passBusy += sec
}

// endPass closes one pass over the rows and records its completion rate:
// operations per summed operation time, or, where operations overlapped
// (closed-loop clients), per wall second of the pass.
func (r *recorder) endPass(wall float64) {
	t := r.passBusy
	if wall > 0 {
		t = wall
	}
	if r.passOps > 0 && t > 0 {
		r.rates = append(r.rates, float64(r.passOps)/t)
	}
	r.passOps, r.passBusy = 0, 0
}

// samples is the number of successful operations recorded.
func (r *recorder) samples() int {
	n := 0
	for _, s := range r.rows {
		n += len(s)
	}
	return n
}

// rowStat is one row of the detailed report.
type rowStat struct {
	Row      string  `json:"row"`
	N        int     `json:"n"`
	MedianMS float64 `json:"median_ms"`
	Q1MS     float64 `json:"q1_ms"`
	Q3MS     float64 `json:"q3_ms"`
}

func (r *recorder) rowStats() []rowStat {
	var out []rowStat
	for _, name := range r.order {
		q1, med, q3 := quartiles(r.rows[name])
		out = append(out, rowStat{Row: name, N: len(r.rows[name]), MedianMS: med * 1e3, Q1MS: q1 * 1e3, Q3MS: q3 * 1e3})
	}
	return out
}

// opP50 is the typical operation time in seconds: the geometric mean over
// rows of each row's median. Where rows belong to groups (the routes of a
// compile workload) it is the geometric mean over groups of the group's own
// row mean, so a route with six rows weighs as much as one with fifty-four.
func (r *recorder) opP50() float64 {
	byGroup := map[string][]float64{}
	for row, s := range r.rows {
		g := r.groups[row]
		byGroup[g] = append(byGroup[g], median(s))
	}
	var means []float64
	for _, meds := range byGroup {
		means = append(means, geomean(meds))
	}
	return geomean(means)
}

// opP95 is the tail of opP50's quantity. Rows have too few samples each to
// keep ten beyond their own p95, so every sample is divided by its row's
// median, the 95th percentile is taken over the pooled ratios of the whole
// phase, and that ratio is applied to opP50. With a single row this is a
// plain p95. beyond is the number of samples beyond it.
func (r *recorder) opP95() (sec float64, beyond int) {
	var ratios []float64
	for _, s := range r.rows {
		if med := median(s); med > 0 {
			for _, x := range s {
				ratios = append(ratios, x/med)
			}
		}
	}
	p, beyond := percentile(ratios, 0.95)
	return p * r.opP50(), beyond
}

// opsPerS is the completion rate of the median pass.
func (r *recorder) opsPerS() float64 { return median(r.rates) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the detailed result of one run; its last-line form (correct,
// attempted, failed, metrics) is what the acceptance driver reads.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of timed operations behind the timings, and
	// BeyondP95 how many of them lie beyond the reported p95.
	Samples   int `json:"samples"`
	BeyondP95 int `json:"beyond_p95"`
	// MachineSpeed is the median calibration factor of the run: reported
	// times are raw times multiplied by it (1 = the nominal machine).
	MachineSpeed float64   `json:"machine_speed"`
	Rows         []rowStat `json:"rows,omitempty"`
	Failures     []string  `json:"failures,omitempty"`
}

// static are the deterministic code-quality numbers of a workload.
type static struct {
	codeBytes   int
	cyclesRatio float64 // modelled cycles of specialized ÷ original code
}

// instance is one set-up workload. setUp functions build it from the env;
// the harness then runs warm (discarded), measure (timed, possibly traced)
// and, in the traced run, layers.
type instance interface {
	// measure runs operations round-robin over the rows for about d,
	// recording samples in rec and, when tr is non-nil, spans in tr. The
	// warm-up pass (nil rec, d == 0) and every phase at tiny scale run a
	// fixed small number of operations instead.
	measure(rec *recorder, tr *tracer, d time.Duration)
	static() static
	// layers fills the per-layer metrics this workload's layers did work for;
	// names it leaves out read 0.
	layers(m layerMetrics, tr *tracer)
	close()
}

type workload struct {
	name  string
	setUp func(e *env) (instance, error)
}

// workloads in the order of BENCHMARK.json, which also says why each exists.
var workloads = []workload{
	{"compile_baseline", setUpCompile("dbrew", "fastpath")},
	{"compile_llvm", setUpCompile("llvm", "llvm_fix")},
	{"compile_dbrew_llvm", setUpCompile("dbrew_llvm")},
	{"run_loops", setUpRunLoops},
	{"run_calls", setUpRunCalls},
	{"tier_warmup", setUpTierWarmup},
	{"serve_cold", setUpServeCold},
	{"serve_hits", setUpServeHits},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// timedSetUp builds the workload several times and returns the last instance
// and the median set-up time. Set-up is everything before the measured phase:
// building the inputs and the system's start state, and a warm-up pass of
// fixed size in which caches fill and lazy work finishes (translations, trace
// compiles, chunk uploads) — work an optimisation could be tempted to move
// there. It is short next to the measured phase, so one timing of it would be
// mostly noise; repeating until a second has gone (5 to 25 times) keeps the
// median steady at a bounded cost.
func timedSetUp(w *workload, e *env) (instance, float64, error) {
	var times []float64
	var inst instance
	started := time.Now()
	for {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		var err error
		sec := e.timed(func() {
			if inst, err = w.setUp(e); err == nil {
				inst.measure(nil, nil, 0)
			}
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, sec)
		n := len(times)
		if e.tiny || n >= 25 || (n >= 5 && time.Since(started) > time.Second) {
			break
		}
	}
	return inst, median(times), nil
}

// tracedSlices is how many alternating untraced/traced slices the traced
// run's budget is cut into, so that drift within the run falls on both sides
// of trace.overhead_ratio alike.
const tracedSlices = 3

// runWorkload is one run: set up, warm up, measure, check, report. The
// untraced run yields the end-to-end metrics. The traced run measures the
// same operations alternately untraced and with spans — the ratio of the two
// is the tracing overhead — and yields the per-layer metrics.
func runWorkload(w *workload, e *env, traced bool) (*report, *tracer, error) {
	inst, setupS, err := timedSetUp(w, e)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	rep := &report{Workload: w.name, Seed: e.seed, Traced: traced}
	runtime.GC()

	if !traced {
		rec := newRecorder()
		inst.measure(rec, nil, e.budget(1))
		rep.fill(rec)
		p95, beyond := rec.opP95()
		rep.BeyondP95 = beyond
		st := inst.static()
		rep.Metrics = map[string]metric{
			"setup_s":           {setupS, "s"},
			"op_ms_p50":         {rec.opP50() * 1e3, "ms"},
			"op_ms_p95":         {p95 * 1e3, "ms"},
			"ops_per_s":         {rec.opsPerS(), "1/s"},
			"peak_rss_mb":       {peakRSSMB(), "MB"},
			"code_cycles_ratio": {st.cyclesRatio, "ratio"},
			"code_bytes":        {float64(st.codeBytes), "B"},
		}
		rep.MachineSpeed = e.cal.speed()
		return rep, nil, nil
	}

	plain, rec, tr := newRecorder(), newRecorder(), newTracer(&e.cal)
	for i := 0; i < tracedSlices; i++ {
		inst.measure(plain, nil, e.budget(0.4/tracedSlices))
		inst.measure(rec, tr, e.budget(0.6/tracedSlices))
	}
	rep.fill(rec)
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	rep.Failures = append(rep.Failures, plain.failures...)
	rep.Correct = rep.Failed == 0

	m := newLayerMetrics()
	if p := plain.opP50(); p > 0 {
		m.set("trace.overhead_ratio", rec.opP50()/p)
	}
	inst.layers(m, tr)
	rep.Metrics = m.metrics()
	rep.MachineSpeed = e.cal.speed()
	return rep, tr, nil
}

func (rep *report) fill(rec *recorder) {
	rep.Attempted = rec.attempted
	rep.Failed = rec.failed
	rep.Correct = rec.failed == 0
	rep.Samples = rec.samples()
	rep.Rows = rec.rowStats()
	rep.Failures = rec.failures
}

// rounds calls pass(i), one pass over the rows, for i = 0, 1, ... until d has
// passed, at least twice. The warm-up (d == 0) and every phase at tiny scale
// are exactly two passes, so that set-up is a fixed amount of work and counts
// repeat.
func (e *env) rounds(d time.Duration, rec *recorder, pass func(i int)) {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= 2 && (e.tiny || time.Since(start) >= d) {
			return
		}
		pass(i)
		if rec != nil {
			rec.endPass(0)
		}
	}
}

// shuffled returns 0..n-1 in an order drawn from the seed and the round, so
// rows are sampled round-robin but never in one fixed sequence whose
// neighbours could bias each other.
func (e *env) shuffled(n, round int) []int {
	return rand.New(rand.NewSource(e.seed*7919 + int64(round))).Perm(n)
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// layerMetrics holds the per-layer metrics of a traced run. Every declared
// name is present from the start, reading 0 where a layer did no work.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for name := range perLayerUnits {
		m[name] = 0
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	if _, ok := perLayerUnits[name]; !ok {
		panic("undeclared per-layer metric " + name)
	}
	m[name] = v
}

func (m layerMetrics) metrics() map[string]metric {
	out := map[string]metric{}
	for name, v := range m {
		out[name] = metric{v, perLayerUnits[name]}
	}
	return out
}

// perLayerUnits declares every per-layer metric and its unit; BENCHMARK.json
// lists the same names and the smoke test holds the two together.
var perLayerUnits = map[string]string{
	"x86.decode_ns_per_inst": "ns", "x86.insts_decoded": "count",
	"dbrew.rewrite_us": "us", "dbrew.insts_emitted": "count", "dbrew.insts_eliminated": "count", "dbrew.fallbacks": "count",
	"lift.func_us": "us", "lift.ir_insts": "count",
	"opt.optimize_us": "us", "opt.fix_us": "us", "opt.ir_insts_after": "count", "opt.rounds": "count", "opt.inlined": "count", "opt.unrolled": "count",
	"jit.compile_us": "us", "jit.code_bytes": "B", "jit.trace_compiles": "count", "jit.trace_native": "count", "jit.trace_deopts": "count", "jit.trace_links": "count",
	"fastpath.compile_us": "us", "fastpath.copy_ratio": "ratio",
	"emu.interp_minst_per_s": "Minst/s", "emu.blocks_minst_per_s": "Minst/s", "emu.tracevm_minst_per_s": "Minst/s", "emu.traces_minst_per_s": "Minst/s",
	"emu.minst_per_s": "Minst/s", "emu.insts_retired": "count", "emu.trace_runs": "count", "emu.trace_iters": "count", "emu.trace_aborts": "count", "emu.side_exits": "count",
	"codecache.hit_ns": "ns", "codecache.hits": "count", "codecache.misses": "count", "codecache.waits": "count", "codecache.evictions": "count",
	"diskcache.get_us": "us", "diskcache.put_us": "us", "diskcache.hits": "count", "diskcache.bytes": "B",
	"cluster.peer_fetch_ms": "ms",
	"service.requests":      "count", "service.overhead_us": "us", "service.request_bytes": "B", "service.queue_wait_us": "us", "service.rejected": "count", "service.timeouts": "count",
	"service.src_memory": "count", "service.src_disk": "count", "service.src_compile": "count", "service.compile_parallelism": "ratio",
	"tier.t1_stall_us": "us", "tier.t2_stall_us": "us", "tier.promotions": "count", "tier.t0_ns_per_call": "ns", "tier.t1_ns_per_call": "ns", "tier.t2_ns_per_call": "ns",
	"trace.overhead_ratio": "ratio", "engine.rewrite_us": "us", "engine.stage_sum_ratio": "ratio",
	"engine.compile_us_dbrew": "us", "engine.compile_us_llvm": "us", "engine.compile_us_llvm_fix": "us", "engine.compile_us_dbrew_llvm": "us", "engine.compile_us_fastpath": "us",
}

// setPipelineLayers derives the compile-pipeline layer timings from spans,
// whether the benchmark drove the stages itself (lift.func) or imported the
// program's own spans (lift.decode + lift.translate). Each is the geometric
// mean over rows of the row's median, in microseconds.
func setPipelineLayers(m layerMetrics, st map[string]*spanStats) {
	us := func(name string) float64 { return st[name].rowGeomean() * 1e6 }
	m.set("dbrew.rewrite_us", us("dbrew.rewrite"))
	if l := us("lift.func"); l > 0 {
		m.set("lift.func_us", l)
	} else {
		m.set("lift.func_us", us("lift.decode")+us("lift.translate"))
	}
	m.set("opt.optimize_us", us("opt.optimize"))
	m.set("opt.fix_us", us("opt.fix"))
	m.set("jit.compile_us", us("jit.compile"))
	m.set("fastpath.compile_us", us("fastpath.compile"))
}

// setTraceCounters reports the trace-tier activity between two snapshots of
// the package-global counters; one workload per process keeps them per
// workload.
func setTraceCounters(m layerMetrics, before, after emu.TraceStats) {
	m.set("jit.trace_compiles", float64(after.Compiled+after.CompiledO3-before.Compiled-before.CompiledO3))
	m.set("jit.trace_native", float64(after.NativeCompiled-before.NativeCompiled))
	m.set("jit.trace_deopts", float64(after.NativeDeopts-before.NativeDeopts))
	m.set("jit.trace_links", float64(after.Links-before.Links))
	m.set("emu.trace_runs", float64(after.Runs-before.Runs))
	m.set("emu.trace_iters", float64(after.Iters-before.Iters))
	m.set("emu.trace_aborts", float64(after.Aborted-before.Aborted))
	m.set("emu.side_exits", float64(after.SideExits-before.SideExits))
}
