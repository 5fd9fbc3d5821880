package service

// Delta-snapshot suite: chunker invariants (lossless, deterministic,
// content-defined locality), chunk-store LRU behavior, the 412
// missing-chunk handshake, and the end-to-end gate — a delta-reconstructed
// snapshot specializes byte-identically to a plain upload.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bench"
)

func TestChunkerLosslessAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, chunkMin - 1, chunkMin, chunkMin + 1, 3 * chunkMax / 2, 100_000}
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		chunks := splitChunks(data)
		var whole []byte
		for _, c := range chunks {
			if len(c) > chunkMax {
				t.Fatalf("size %d: chunk of %d bytes exceeds chunkMax", n, len(c))
			}
			whole = append(whole, c...)
		}
		if !bytes.Equal(whole, data) {
			t.Fatalf("size %d: chunks do not reassemble to the input", n)
		}
		again := splitChunks(data)
		if len(again) != len(chunks) {
			t.Fatalf("size %d: chunking is not deterministic", n)
		}
		for i := range chunks {
			if !bytes.Equal(chunks[i], again[i]) {
				t.Fatalf("size %d: chunk %d differs across runs", n, i)
			}
		}
	}
}

// TestChunkerLocality: a single-byte edit must change only a bounded
// neighborhood of chunks — the property that makes deltas small.
func TestChunkerLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 200_000)
	rng.Read(data)
	edited := append([]byte(nil), data...)
	edited[len(edited)/2] ^= 0xff

	hashesOf := func(b []byte) map[string]bool {
		m := make(map[string]bool)
		for _, c := range splitChunks(b) {
			m[chunkHash(c)] = true
		}
		return m
	}
	before, after := hashesOf(data), hashesOf(edited)
	changed := 0
	for h := range after {
		if !before[h] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the edit changed no chunk — hashing is broken")
	}
	// ~49 chunks of ~4 KiB; a local edit must not cascade past a few.
	if changed > 3 {
		t.Fatalf("a one-byte edit changed %d chunks of %d — chunking is not content-defined", changed, len(after))
	}
}

func TestChunkStoreLRUByBytes(t *testing.T) {
	cs := newChunkStore(10)
	put := func(h string, n int) { cs.put(h, bytes.Repeat([]byte{h[0]}, n)) }
	put("a", 4)
	put("b", 4)
	if _, ok := cs.get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	put("c", 4) // over budget: evicts b (LRU), not a
	if _, ok := cs.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := cs.get("a"); !ok {
		t.Fatal("a evicted despite refresh")
	}
	entries, size, ev := cs.stats()
	if entries != 2 || size != 8 || ev != 1 {
		t.Fatalf("stats = %d entries, %d bytes, %d evictions; want 2, 8, 1", entries, size, ev)
	}
	// An oversized chunk is not retained and evicts nothing.
	put("huge", 11)
	if _, ok := cs.get("huge"); ok {
		t.Fatal("oversized chunk retained")
	}
}

// TestDeltaSnapshotsByteIdentity is the e2e gate: a delta-mode client's
// responses are byte-identical to a plain client's over the same image, the
// second specialization ships near-zero region payload, and a server that
// lost its chunk store recovers through one 412 retry.
func TestDeltaSnapshotsByteIdentity(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)

	// Reference: a plain client against its own server.
	_, plain := startServer(t, Config{})
	plainResp, err := plain.Specialize(context.Background(), distinctRequest(in, regions, 4))
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	delta := NewClient(ts.URL)
	delta.EnableDeltaSnapshots()

	first, err := delta.Specialize(context.Background(), distinctRequest(in, regions, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Code, plainResp.Code) {
		t.Fatal("delta-uploaded snapshot specialized to different bytes")
	}
	m := svc.MetricsSnapshot()
	if m.DeltaRequests != 1 || m.DeltaMisses != 0 {
		t.Fatalf("metrics after first delta request: %+v", m)
	}

	// Second specialization over the same image: every chunk is known, so
	// the upload carries hashes only and the server reconstructs the
	// regions entirely from its store.
	second, err := delta.Specialize(context.Background(), distinctRequest(in, regions, 5))
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "compile" {
		t.Fatalf("second source = %q, want a fresh compile under a new key", second.Source)
	}
	m = svc.MetricsSnapshot()
	if m.DeltaBytesSaved == 0 {
		t.Fatal("repeat upload saved no bytes")
	}
	var total int64
	for _, rg := range regions {
		total += int64(len(rg.Data))
	}
	if m.DeltaBytesSaved < total {
		t.Fatalf("repeat upload saved %d of %d region bytes", m.DeltaBytesSaved, total)
	}

	// The wire request itself must be small: all-hashes, no payloads.
	dreq, _ := delta.deltaRequest(distinctRequest(in, regions, 5), nil)
	for i, rg := range dreq.Regions {
		for j, ch := range rg.Chunks {
			if len(ch.Data) != 0 {
				t.Fatalf("regions[%d].chunks[%d] still ships %d payload bytes", i, j, len(ch.Data))
			}
		}
	}

	// Server "restart": a fresh service with an empty chunk store behind
	// the same client. The stale client omits every payload, eats one 412,
	// and recovers transparently.
	svc2 := New(Config{})
	ts2 := httptest.NewServer(svc2)
	defer ts2.Close()
	delta.BaseURL = ts2.URL
	third, err := delta.Specialize(context.Background(), distinctRequest(in, regions, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third.Code, plainResp.Code) {
		t.Fatal("post-restart delta snapshot specialized to different bytes")
	}
	m2 := svc2.MetricsSnapshot()
	if m2.DeltaMisses != 1 {
		t.Fatalf("restart recovery took %d missing-chunk replies, want 1", m2.DeltaMisses)
	}
	if m2.OK != 1 {
		t.Fatalf("ok = %d, want 1", m2.OK)
	}
}

// TestDeltaMalformedRegions: both forms at once and payload/hash mismatch
// are 400s, not handshakes.
func TestDeltaMalformedRegions(t *testing.T) {
	svc := New(Config{})
	_, regions := newWorkloadSnapshot(t)

	data := regions[0].Data
	chunks := splitChunks(data)

	both := &Request{
		Regions: []Region{{Addr: regions[0].Addr, Data: data, Chunks: []Chunk{{Hash: chunkHash(chunks[0]), Data: chunks[0]}}}},
		Entry:   regions[0].Addr,
		Sig:     SigSpec{Ret: "int"},
	}
	if err := svc.materializeRegions(both); err == nil {
		t.Fatal("region with both data and chunks accepted")
	}

	lying := &Request{
		Regions: []Region{{Addr: regions[0].Addr, Chunks: []Chunk{{Hash: "00000000000000000000000000000000", Data: []byte{1, 2, 3}}}}},
	}
	if err := svc.materializeRegions(lying); err == nil {
		t.Fatal("chunk payload with mismatched hash accepted")
	}

	honest := &Request{
		Regions: []Region{{Addr: regions[0].Addr, Chunks: func() []Chunk {
			var cs []Chunk
			for _, c := range chunks {
				cs = append(cs, Chunk{Hash: chunkHash(c), Data: c})
			}
			return cs
		}()}},
	}
	if err := svc.materializeRegions(honest); err != nil {
		t.Fatalf("well-formed delta region rejected: %v", err)
	}
	if !bytes.Equal(honest.Regions[0].Data, data) {
		t.Fatal("reconstructed region differs from the original bytes")
	}
}

// TestDeltaOneByteChangeIsCaught: after a successful delta upload, one byte
// flipped in place in the caller's slice of any region is still seen, since
// the client compares against its own copy of what it last chunked. The
// server that holds the old bytes refuses the edit as a conflict, and a
// server with nothing at that address receives the changed chunk and
// specializes to exactly what a plain upload of the edited image gives.
func TestDeltaOneByteChangeIsCaught(t *testing.T) {
	w, pristine := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	ctx := context.Background()
	for i := range pristine {
		regions := make([]Region, len(pristine))
		for j, rg := range pristine {
			regions[j] = Region{Addr: rg.Addr, Data: bytes.Clone(rg.Data)}
		}
		_, delta := startServer(t, Config{})
		delta.EnableDeltaSnapshots()
		if _, err := delta.Specialize(ctx, distinctRequest(in, regions, 4)); err != nil {
			t.Fatal(err)
		}
		old := make(map[string]bool)
		for _, ch := range splitChunks(pristine[i].Data) {
			old[chunkHash(ch)] = true
		}
		regions[i].Data[len(regions[i].Data)/2] ^= 0xff

		if _, err := delta.Specialize(ctx, distinctRequest(in, regions, 5)); !errors.Is(err, ErrConflict) {
			t.Fatalf("regions[%d]: edit of a mapped region answered %v, want a conflict", i, err)
		}

		dreq, _ := delta.deltaRequest(distinctRequest(in, regions, 5), nil)
		shipped := 0
		for j, rg := range dreq.Regions {
			for _, ch := range rg.Chunks {
				if len(ch.Data) == 0 {
					continue
				}
				if j != i || old[ch.Hash] {
					t.Fatalf("regions[%d]: edit of regions[%d] ships chunk %s of regions[%d]", i, i, ch.Hash, j)
				}
				shipped++
			}
		}
		if shipped == 0 {
			t.Fatalf("regions[%d]: the edited region ships no new chunk", i)
		}

		_, _, delta.BaseURL = startServerURL(t, Config{})
		got, gotErr := delta.Specialize(ctx, distinctRequest(in, regions, 5))
		_, plain := startServer(t, Config{})
		want, wantErr := plain.Specialize(ctx, distinctRequest(in, regions, 5))
		switch {
		case wantErr != nil:
			var ga, wa *APIError
			if !errors.As(gotErr, &ga) || !errors.As(wantErr, &wa) || ga.StatusCode != wa.StatusCode {
				t.Fatalf("regions[%d]: delta upload answered %v, plain upload %v", i, gotErr, wantErr)
			}
		case gotErr != nil:
			t.Fatalf("regions[%d]: delta upload failed (%v) where a plain upload succeeded", i, gotErr)
		case !bytes.Equal(got.Code, want.Code):
			t.Fatalf("regions[%d]: delta upload specialized to different code than a plain upload", i)
		}
	}
}

// TestDeltaConcurrentUploads: two delta clients upload one image from four
// goroutines each, so the client's chunk memo and the server's record of
// placed chunks are used at once; every answer equals the plain upload's.
func TestDeltaConcurrentUploads(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	ctx := context.Background()
	_, plain := startServer(t, Config{})
	want, err := plain.Specialize(ctx, distinctRequest(in, regions, 4))
	if err != nil {
		t.Fatal(err)
	}
	_, _, url := startServerURL(t, Config{})
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		client := NewClient(url)
		client.EnableDeltaSnapshots()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 5; n++ {
					resp, err := client.Specialize(ctx, distinctRequest(in, regions, 4))
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(resp.Code, want.Code) {
						t.Error("concurrent delta upload specialized to different code")
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}
