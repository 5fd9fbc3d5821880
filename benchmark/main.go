// Command benchmark is the benchmark of this repository: eight workloads that
// go from "request in" to "specialized code executed", each run in its own
// process, untraced for the end-to-end metrics and traced for the per-layer
// metrics, every output checked against an independent reference.
//
//	benchmark                              every workload, -runs times each, then traced
//	benchmark -workload W -trace 0|1       one run of one workload (what BENCHMARK.json's command does)
//	benchmark -compare A.json B.json       judge B against A by the bounds in BENCHMARK.json
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "workload seed: generated programs, matrix contents, call inputs, operation order, key draws (2 is the held-out seed)")
		seconds = flag.Float64("seconds", 0, "length of the measured phase of one run (default: run_seconds of BENCHMARK.json; the acceptance driver passes it)")
		traced  = flag.Int("trace", 0, "with -workload: 1 runs traced and reports per-layer metrics, 0 end-to-end metrics")
		scale   = flag.String("scale", "full", "full, or tiny: small program sets and fixed operation counts (smoke test)")
		runs    = flag.Int("runs", 3, "without -workload: untraced runs per workload, all with the same seed")
		outDir  = flag.String("out", ".bench_build", "directory for scratch files and spans-<workload>.json")
		jsonOut = flag.String("json", "", "without -workload: also write the results to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	err := func() error {
		if *compare {
			return compareFiles(flag.Args(), os.Stdout)
		}
		if *seconds <= 0 { // run length is the benchmark's, not the caller's
			man, err := loadManifest()
			if err != nil {
				return err
			}
			*seconds = float64(man.RunSeconds)
		}
		if *name != "" {
			return runOne(*name, &env{seed: *seed, seconds: *seconds, tiny: *scale == "tiny"}, *traced == 1, *outDir)
		}
		return runAll(*runs, *seed, *seconds, *scale, *outDir, *jsonOut)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed makes the command exit non-zero after the result is printed.
var errFailed = errors.New("operations failed or returned wrong results")

// runOne runs one workload in this process and prints the detailed report
// and then, as the last line, the result object the driver reads.
func runOne(name string, e *env, traced bool, outDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	e.clients = min(runtime.NumCPU(), 4)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var err error
	if e.tmp, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)

	rep, tr, err := runWorkload(w, e, traced)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(outDir, "spans-"+name+".json")); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	enc.Encode(map[string]*report{"report": rep})
	enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err := out.Flush(); err != nil {
		return err
	}
	if !rep.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintln(os.Stderr, "failed:", f)
		}
		return errFailed
	}
	return nil
}

// summary is one end-to-end metric over the runs of a result file.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3 - Q1) / Median, the run-to-run noise a bound is judged
	// against.
	Spread float64   `json:"spread"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type workloadResult struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// Samples is the number of timed operations behind each run's timings;
	// BeyondP95 how many of them lay beyond the p95 (at least ten, or the p95
	// of that run is not to be trusted).
	Samples   []int `json:"samples"`
	BeyondP95 []int `json:"beyond_p95"`
	// MachineSpeed is each run's median calibration factor (calib.go).
	MachineSpeed []float64          `json:"machine_speed"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	PerLayer     map[string]metric  `json:"per_layer"`
	Rows         []rowStat          `json:"rows"`
}

type results struct {
	Host      map[string]any             `json:"host"`
	Seed      int64                      `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Scale     string                     `json:"scale"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func hostFacts() map[string]any {
	commit := os.Getenv("BENCH_COMMIT") // run.sh asks git; go run stamps the binary
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "clients": min(runtime.NumCPU(), 4)}
}

// child re-executes this binary for one run of one workload, so set-up time,
// peak memory, collector state and the emulator's process-wide trace counters
// belong to that workload alone.
func child(name string, seed int64, seconds float64, scale, outDir string, traced int) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-scale", scale, "-out", outDir, "-trace", fmt.Sprint(traced))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep struct {
		Report *report `json:"report"`
	}
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &rep) != nil || rep.Report == nil {
		return nil, fmt.Errorf("%s: no report from child: %v", name, runErr)
	}
	return rep.Report, nil // a child that only counted failures still reports
}

// runAll is the front door: every workload, runs untraced runs and one traced
// run of the same seed, each in a fresh child process.
func runAll(runs int, seed int64, seconds float64, scale, outDir, jsonOut string) error {
	res := &results{Host: hostFacts(), Seed: seed, Runs: runs, Seconds: seconds, Scale: scale,
		Workloads: map[string]*workloadResult{}}
	failed := false
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: map[string]summary{}}
		res.Workloads[w.name] = wr
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i <= runs; i++ {
			traced := 0
			if i == runs {
				traced = 1
			}
			fmt.Fprintf(os.Stderr, "%s: run %d/%d (seed %d, trace %d)\n", w.name, i+1, runs+1, seed, traced)
			rep, err := child(w.name, seed, seconds, scale, outDir, traced)
			if err != nil {
				return err
			}
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			if traced == 1 {
				wr.PerLayer = rep.Metrics
				continue
			}
			if i == 0 {
				wr.Rows = rep.Rows
			}
			wr.Samples = append(wr.Samples, rep.Samples)
			wr.BeyondP95 = append(wr.BeyondP95, rep.BeyondP95)
			wr.MachineSpeed = append(wr.MachineSpeed, rep.MachineSpeed)
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, v := range values {
			q1, med, q3 := quartiles(v)
			wr.EndToEnd[name] = summary{Unit: units[name], Median: med, Q1: q1, Q3: q3, Spread: spread(v), N: len(v), Values: v}
		}
		wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
		failed = failed || wr.Failed > 0
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if jsonOut != "" {
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if _, err := os.Stdout.Write(data); err != nil {
		return err
	}
	if failed {
		return errFailed
	}
	return nil
}
