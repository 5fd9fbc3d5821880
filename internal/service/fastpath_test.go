package service

// Deadline-pressured strategy selection: requests whose remaining budget
// falls below Config.FastpathDeadline must be compiled by the DBrew backend
// alone and say so in Response.Strategy, without ever sharing
// cache entries with full-strategy compiles of the same specialization.

import (
	"bytes"
	"context"
	"testing"
	"time"

	dbrewllvm "repro"
	"repro/internal/bench"
)

// TestFastpathStrategySelection drives one server through both strategies:
// a generous deadline keeps the full pipeline, a budget below the
// threshold flips to fastpath, and the two never coalesce into the same
// cache entry.
func TestFastpathStrategySelection(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)

	_, client := startServer(t, Config{FastpathDeadline: 5 * time.Second})

	full := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	full.DeadlineMS = 60_000
	fullResp, err := client.Specialize(context.Background(), full)
	if err != nil {
		t.Fatalf("full Specialize: %v", err)
	}
	if fullResp.Strategy != strategyFull {
		t.Fatalf("generous-deadline strategy = %q, want %q", fullResp.Strategy, strategyFull)
	}
	if len(fullResp.Code) == 0 {
		t.Fatal("full strategy returned no code")
	}

	// Same specialization, but the 4s budget sits below the 5s threshold:
	// the server must switch strategies and must not serve the cached
	// full-strategy artifact (the cache key includes the backend).
	fast := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	fast.DeadlineMS = 4_000
	fastResp, err := client.Specialize(context.Background(), fast)
	if err != nil {
		t.Fatalf("fastpath Specialize: %v", err)
	}
	if fastResp.Strategy != strategyFastpath {
		t.Fatalf("tight-deadline strategy = %q, want %q", fastResp.Strategy, strategyFastpath)
	}
	if fastResp.CacheHit {
		t.Error("fastpath request hit the full-strategy cache entry")
	}
	if len(fastResp.Code) == 0 {
		t.Fatal("fastpath strategy returned no code")
	}

	// A repeat under the same pressure is a warm hit on the fastpath entry.
	fastResp2, err := client.Specialize(context.Background(), fast)
	if err != nil {
		t.Fatalf("warm fastpath Specialize: %v", err)
	}
	if !fastResp2.CacheHit {
		t.Error("identical fastpath repeat did not hit the cache")
	}
	if fastResp2.Strategy != strategyFastpath {
		t.Errorf("warm fastpath strategy = %q, want %q", fastResp2.Strategy, strategyFastpath)
	}
	if !bytes.Equal(fastResp2.Code, fastResp.Code) {
		t.Error("warm fastpath bytes differ from cold fastpath bytes")
	}

	m, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if m.FastpathServed != 2 {
		t.Errorf("fastpath_served = %d, want 2", m.FastpathServed)
	}
	if m.FullServed != 1 {
		t.Errorf("full_served = %d, want 1", m.FullServed)
	}
}

// TestFastpathStrategyMatchesDirectRewrite asserts the fastpath artifact
// served over HTTP is byte-identical to a direct in-process one-shot
// BackendDBrew Rewrite, over the same snapshot — the same acceptance criterion
// TestServiceMatchesDirectRewrite applies to the full pipeline.
func TestFastpathStrategyMatchesDirectRewrite(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)

	eng := directEngine(t, regions)
	rw := dbrewllvm.NewRewriter(eng, in.Entry, in.Sig)
	rw.SetBackend(dbrewllvm.BackendDBrew)
	rw.SetParPtr(0, in.StencilAddr, in.StencilSize)
	directAddr, err := rw.Rewrite()
	if err != nil {
		t.Fatalf("direct BackendDBrew Rewrite: %v", err)
	}
	directCode, err := eng.Mem.Read(directAddr, rw.CodeSize)
	if err != nil {
		t.Fatal(err)
	}

	// A threshold above any allowed deadline forces fastpath on every
	// request this server sees.
	_, client := startServer(t, Config{FastpathDeadline: time.Hour})
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	resp, err := client.Specialize(context.Background(), req)
	if err != nil {
		t.Fatalf("Specialize: %v", err)
	}
	if resp.Strategy != strategyFastpath {
		t.Fatalf("strategy = %q, want %q", resp.Strategy, strategyFastpath)
	}
	if !bytes.Equal(resp.Code, directCode) {
		t.Fatalf("service fastpath code (%d bytes) differs from direct BackendDBrew Rewrite (%d bytes)",
			len(resp.Code), len(directCode))
	}
}
