package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// manifest is BENCHMARK.json: the contract this benchmark is run and judged
// by — metric names, units, directions and regression bounds.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json from the repository root or from this
// directory, wherever the command was started.
func loadManifest() (*manifest, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdictOf judges side b against base a for one (workload, metric) row.
// worse is b's change for the worse as a share of a's median. A side whose
// own quartiles lie further apart than the bound cannot resolve a change of
// the bound's size: such a row is unresolved, never unchanged.
func verdictOf(a, b summary, lowerIsBetter bool, bound float64) (verdict string, worse float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	worse = (b.Median - a.Median) / a.Median
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	case worse < -bound:
		return "improved", worse
	}
	return "unchanged", worse
}

// compareFiles prints one row per (workload, end-to-end metric) and returns
// an error when a row regressed or a workload's fail ratio rose.
func compareFiles(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: -compare A.json B.json")
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-18s %-10s %9s  %s\n", "workload", "metric", "verdict", "B/A", "base A (median [q1, q3] of n) -> B")
	for _, wl := range man.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", wl.Name)
			bad++
			continue
		}
		if wb.FailRatio > wa.FailRatio {
			fmt.Fprintf(w, "%-18s %-18s %-10s fail ratio %g -> %g\n", wl.Name, "fail_ratio", "regressed", wa.FailRatio, wb.FailRatio)
			bad++
		}
		for _, m := range man.EndToEnd {
			sa, oka := wa.EndToEnd[m.Name]
			sb, okb := wb.EndToEnd[m.Name]
			if !oka || !okb {
				fmt.Fprintf(w, "%-18s %-18s missing from one side\n", wl.Name, m.Name)
				bad++
				continue
			}
			v, _ := verdictOf(sa, sb, m.Better == "lower", m.Bound)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-18s %-10s %9.4f  %.6g %s [%.6g, %.6g] of %d -> %.6g [%.6g, %.6g] of %d (bound %g)\n",
				wl.Name, m.Name, v, sb.Median/sa.Median, sa.Median, m.Unit, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, m.Bound)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or are missing", bad)
	}
	return nil
}
