package service

// Observability suite: the Prometheus /metrics endpoint (default
// representation, linted against the exposition format; JSON negotiated via
// Accept or ?format=json) and per-request pipeline traces (?trace=1).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/trace"
)

func startServerURL(t *testing.T, cfg Config) (*Service, *Client, string) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, NewClient(ts.URL), ts.URL
}

func TestMetricsPrometheusFormat(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	_, client, url := startServerURL(t, Config{})

	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	if _, err := client.Specialize(context.Background(), req); err != nil {
		t.Fatalf("Specialize: %v", err)
	}

	// Default representation: Prometheus text format, valid per the linter.
	hres, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hres.Body)
	hres.Body.Close()
	if got := hres.Header.Get("Content-Type"); got != trace.ContentType {
		t.Errorf("content type %q, want %q", got, trace.ContentType)
	}
	if err := trace.Lint(body); err != nil {
		t.Fatalf("/metrics body fails Prometheus lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"dbrew_service_requests_total 1",
		"dbrew_service_ok_total 1",
		"dbrew_codecache_misses_total 1",
		"dbrew_codecache_entries 1",
		`dbrew_service_latency_seconds_bucket{le="+Inf"} 1`,
		"dbrew_service_latency_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// JSON stays available through content negotiation, both ways.
	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatalf("client.Metrics (Accept: application/json): %v", err)
	}
	if m.Requests != 1 || m.OK != 1 {
		t.Errorf("JSON snapshot requests=%d ok=%d, want 1/1", m.Requests, m.OK)
	}
	hres, err = http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var m2 Metrics
	if err := json.NewDecoder(hres.Body).Decode(&m2); err != nil {
		t.Fatalf("?format=json did not return JSON: %v", err)
	}
	if m2.Requests != 1 {
		t.Errorf("?format=json requests=%d, want 1", m2.Requests)
	}
}

func TestSpecializeTrace(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	_, client, _ := startServerURL(t, Config{})
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})

	resp, err := client.SpecializeTraced(context.Background(), req)
	if err != nil {
		t.Fatalf("SpecializeTraced: %v", err)
	}
	if len(resp.Trace) == 0 {
		t.Fatal("?trace=1 returned no trace")
	}
	var tr struct {
		Name    string `json:"name"`
		TotalNS int64  `json:"total_ns"`
		Spans   []struct {
			Name    string `json:"name"`
			DurNS   int64  `json:"dur_ns"`
			Outcome string `json:"outcome"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(resp.Trace, &tr); err != nil {
		t.Fatalf("trace does not parse: %v\n%s", err, resp.Trace)
	}
	if tr.Name != "specialize" {
		t.Errorf("trace name %q, want specialize", tr.Name)
	}
	seen := map[string]string{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = sp.Outcome
	}
	for _, want := range []string{"materialize", "regions", "admission", "cache", "rewrite", "decode", "lift", "optimize", "jit"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("cold trace missing span %q (got %v)", want, seen)
		}
	}
	if seen["cache"] != "miss" {
		t.Errorf("cold cache span outcome %q, want miss", seen["cache"])
	}

	// A repeat request is a cache hit: its trace has the hit-annotated cache
	// span and no compile-stage spans.
	resp2, err := client.SpecializeTraced(context.Background(), req)
	if err != nil {
		t.Fatalf("warm SpecializeTraced: %v", err)
	}
	if err := json.Unmarshal(resp2.Trace, &tr); err != nil {
		t.Fatalf("warm trace does not parse: %v", err)
	}
	seen = map[string]string{}
	for _, sp := range tr.Spans {
		seen[sp.Name] = sp.Outcome
	}
	if seen["cache"] != "hit" {
		t.Errorf("warm cache span outcome %q, want hit", seen["cache"])
	}
	if _, ok := seen["jit"]; ok {
		t.Error("warm trace contains a jit span; the hit should skip compilation")
	}

	// An untraced request carries no trace payload.
	resp3, err := client.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp3.Trace) != 0 {
		t.Error("untraced request returned a trace")
	}
}
