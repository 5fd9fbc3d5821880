package service

// Persistence and fleet end-to-end suite: warm restarts over a shared
// cache directory serve previous compilations without recompiling, two
// fleet nodes compile each specialization exactly once fleet-wide, a
// killed peer degrades to local compilation, and explicit evictions reach
// the owning peer. Run with -race: the warming gate, the peer fetch/forward
// paths, and the eviction broadcast are all concurrent surfaces.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	dbrewllvm "repro"
	"repro/internal/bench"
	"repro/internal/codecache"
	"repro/internal/diskcache"
)

// requestKey derives the fleet-wide specialization key of req the same way
// the service does: a rewriter configured identically over an identical
// snapshot. The key hashes content (entry, signature, switches, fixed
// bytes), so any engine holding the same image derives the same key.
func requestKey(t *testing.T, regions []Region, req *Request) codecache.Key {
	t.Helper()
	eng := directEngine(t, regions)
	eng.EnableCache(8)
	sig, err := req.Sig.ABISignature()
	if err != nil {
		t.Fatal(err)
	}
	rw := dbrewllvm.NewRewriter(eng, req.Entry, sig)
	rw.Strict = true
	rw.FastMath = !req.NoFastMath
	rw.ForceVectorWidth = req.ForceVectorWidth
	if req.Backend == "dbrew" {
		rw.SetBackend(dbrewllvm.BackendDBrew)
	} else {
		rw.SetBackend(dbrewllvm.BackendLLVM)
	}
	for _, p := range req.FixedParams {
		if p.Ptr {
			rw.SetParPtr(p.Idx, p.Value, p.Size)
		} else {
			rw.SetPar(p.Idx, p.Value)
		}
	}
	for _, m := range req.FixedRanges {
		rw.SetMem(m.Start, m.End)
	}
	k, ok := rw.CacheKey()
	if !ok {
		t.Fatal("request key not derivable")
	}
	return k
}

// TestWarmingHealthz pins the warming contract: while the disk index loads,
// /healthz answers 503 {"status":"warming"} and a /specialize whose
// deadline passes while gated gets 504; once warming finishes the service
// is healthy and serves normally.
func TestWarmingHealthz(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)

	gate := make(chan struct{})
	svc := New(Config{CacheDir: t.TempDir(), warmHook: func() { <-gate }})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := NewClient(ts.URL)

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "warming") {
		t.Fatalf("healthz while warming = %d %s, want 503 warming", res.StatusCode, body)
	}

	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	req.DeadlineMS = 100
	if _, err := client.Specialize(context.Background(), req); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("specialize while warming err = %v, want ErrDeadlineExceeded", err)
	}

	close(gate)
	<-svc.Ready()
	if err := svc.WarmError(); err != nil {
		t.Fatalf("WarmError = %v", err)
	}
	if err := client.Health(context.Background()); err != nil {
		t.Fatalf("healthz after warming: %v", err)
	}
	req.DeadlineMS = 0
	if resp, err := client.Specialize(context.Background(), req); err != nil || len(resp.Code) == 0 {
		t.Fatalf("specialize after warming: %v", err)
	}
}

// TestWarmFailureRunsWithoutPersistence: a cache directory that cannot be
// opened surfaces through WarmError, but the service still becomes ready
// and compiles — the disk level is an optimization, never a correctness
// dependency.
func TestWarmFailureRunsWithoutPersistence(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)

	// A regular file where the directory should be.
	notADir := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, client := startServer(t, Config{CacheDir: notADir})
	<-svc.Ready()
	if svc.WarmError() == nil {
		t.Fatal("WarmError = nil, want the failed disk-cache open")
	}
	resp, err := client.Specialize(context.Background(), requestFor(in, regions, specCase{backend: "llvm", fix: true}))
	if err != nil {
		t.Fatalf("specialize without persistence: %v", err)
	}
	if resp.Source != "compile" {
		t.Fatalf("source = %q, want compile", resp.Source)
	}
}

// TestServiceWarmRestart asserts the acceptance criterion: a restarted
// daemon pointed at the same cache directory serves a previously compiled
// specialization byte-identically from disk, with zero pipeline executions.
func TestServiceWarmRestart(t *testing.T) {
	dir := t.TempDir()
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})

	svc1, client1 := startServer(t, Config{CacheDir: dir})
	cold, err := client1.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Source != "compile" {
		t.Fatalf("cold source = %q, want compile", cold.Source)
	}
	if n := svc1.Engine().CompileCount(); n != 1 {
		t.Fatalf("cold CompileCount = %d, want 1", n)
	}
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	svc2, client2 := startServer(t, Config{CacheDir: dir})
	warm, err := client2.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != "disk" {
		t.Fatalf("restart source = %q, want disk", warm.Source)
	}
	if !bytes.Equal(warm.Code, cold.Code) {
		t.Fatal("restart served different bytes than the original compile")
	}
	if n := svc2.Engine().CompileCount(); n != 0 {
		t.Fatalf("restart CompileCount = %d, want 0 — the pipeline ran", n)
	}

	// The disk hit repopulated the memory level.
	again, err := client2.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "memory" || !again.CacheHit {
		t.Fatalf("repeat after disk hit: source %q cache_hit %v, want memory hit", again.Source, again.CacheHit)
	}
}

// TestArtifactEndpoints covers the fleet wire surface directly: GET serves
// the wire-encoded artifact for a compiled key, unknown keys 404, malformed
// keys 400, and DELETE drops every level so the next request recompiles.
func TestArtifactEndpoints(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})

	svc := New(Config{CacheDir: t.TempDir()})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := NewClient(ts.URL)
	resp, err := client.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	key := requestKey(t, regions, req)

	base := ts.URL
	status, body := httpDo(t, http.MethodGet, base+"/artifact/"+key.String(), nil)
	if status != http.StatusOK {
		t.Fatalf("GET artifact = %d %s", status, body)
	}
	gotKey, art, err := diskcache.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || !bytes.Equal(art.Code, resp.Code) {
		t.Fatal("served artifact does not match the compiled response")
	}

	if status, _ := httpDo(t, http.MethodGet, base+"/artifact/"+codecache.Key{0xff}.String(), nil); status != http.StatusNotFound {
		t.Fatalf("GET unknown key = %d, want 404", status)
	}
	if status, _ := httpDo(t, http.MethodGet, base+"/artifact/not-a-key", nil); status != http.StatusBadRequest {
		t.Fatalf("GET malformed key = %d, want 400", status)
	}

	status, body = httpDo(t, http.MethodDelete, base+"/artifact/"+key.String(), nil)
	if status != http.StatusOK || !strings.Contains(string(body), "true") {
		t.Fatalf("DELETE = %d %s, want removed=true", status, body)
	}
	if status, _ := httpDo(t, http.MethodGet, base+"/artifact/"+key.String(), nil); status != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d, want 404", status)
	}
	re, err := client.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if re.Source != "compile" {
		t.Fatalf("post-eviction source = %q, want compile", re.Source)
	}
}

// httpDo issues a bare HTTP request and returns (status, body).
func httpDo(t *testing.T, method, url string, body io.Reader) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	return res.StatusCode, raw
}

// fleetPair starts two fleet nodes that list each other as peers, each
// serving on a real TCP port that matches its advertised Self address.
func fleetPair(t *testing.T, mut func(*Config)) (svcA, svcB *Service, clientA, clientB *Client) {
	t.Helper()
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := la.Addr().String(), lb.Addr().String()
	cfgA := Config{Self: addrA, Peers: []string{addrB}}
	cfgB := Config{Self: addrB, Peers: []string{addrA}}
	if mut != nil {
		mut(&cfgA)
		mut(&cfgB)
	}
	svcA, svcB = New(cfgA), New(cfgB)
	tsA := &httptest.Server{Listener: la, Config: &http.Server{Handler: svcA}}
	tsB := &httptest.Server{Listener: lb, Config: &http.Server{Handler: svcB}}
	tsA.Start()
	tsB.Start()
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	return svcA, svcB, NewClient(tsA.URL), NewClient(tsB.URL)
}

// TestTwoNodeFleetExactlyOnce asserts the fleet acceptance criterion: N
// concurrent identical requests spread across two nodes compile exactly
// once fleet-wide, every caller receiving identical bytes.
func TestTwoNodeFleetExactlyOnce(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})

	svcA, svcB, clientA, clientB := fleetPair(t, nil)

	const concurrency = 32
	codes := make([][]byte, concurrency)
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < concurrency; i++ {
		i := i
		client := clientA
		if i%2 == 1 {
			client = clientB
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := client.Specialize(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			codes[i] = resp.Code
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(codes[i], codes[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	total := svcA.Engine().CompileCount() + svcB.Engine().CompileCount()
	if total != 1 {
		t.Fatalf("fleet CompileCount = %d, want exactly 1", total)
	}

	// The non-owner resolved its traffic through the fleet, never by
	// compiling locally.
	key := requestKey(t, regions, req)
	nonOwner := svcA
	if _, self := svcA.fleet.Owner(key); self {
		nonOwner = svcB
	}
	m := nonOwner.MetricsSnapshot()
	if n := nonOwner.Engine().CompileCount(); n != 0 {
		t.Fatalf("non-owner compiled %d times", n)
	}
	if m.PeerHits+m.PeerForwards == 0 {
		t.Fatalf("non-owner metrics %+v: no peer hit or forward recorded", m)
	}
	if m.PeerDegraded != 0 {
		t.Fatalf("non-owner degraded %d times with a healthy fleet", m.PeerDegraded)
	}
	if m.Cluster == nil {
		t.Fatal("fleet-mode metrics carry no cluster snapshot")
	}
}

// TestFleetEvictionBroadcast: evicting a key on the node that adopted it
// propagates to the owning peer, scrubbing the artifact fleet-wide; the
// owner's own re-broadcast self-suppresses rather than looping.
func TestFleetEvictionBroadcast(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	key := requestKey(t, regions, req)

	svcA, svcB, clientA, clientB := fleetPair(t, nil)
	owner, nonOwner, nonOwnerClient := svcA, svcB, clientB
	if _, self := svcB.fleet.Owner(key); self {
		owner, nonOwner, nonOwnerClient = svcB, svcA, clientA
	}

	// Compiling through the non-owner lands the artifact on both nodes:
	// the owner compiles (forwarded), the non-owner adopts the result.
	resp, err := nonOwnerClient.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "forward" && resp.Source != "peer" {
		t.Fatalf("non-owner source = %q, want a fleet-resolved source", resp.Source)
	}
	ctx := context.Background()
	if _, err := owner.Engine().ArtifactFor(ctx, key, false); err != nil {
		t.Fatalf("owner holds no artifact after forwarded compile: %v", err)
	}
	if _, err := nonOwner.Engine().ArtifactFor(ctx, key, false); err != nil {
		t.Fatalf("non-owner did not adopt the forwarded artifact: %v", err)
	}

	// Evict on the non-owner; the notifier broadcasts DELETE to the owner
	// synchronously, so the fleet is clean when the call returns.
	if !nonOwner.Engine().RemoveSpecialization(key) {
		t.Fatal("non-owner removal reported nothing removed")
	}
	if _, err := nonOwner.Engine().ArtifactFor(ctx, key, false); !errors.Is(err, dbrewllvm.ErrArtifactNotFound) {
		t.Fatalf("non-owner still serves the evicted key: %v", err)
	}
	if _, err := owner.Engine().ArtifactFor(ctx, key, false); !errors.Is(err, dbrewllvm.ErrArtifactNotFound) {
		t.Fatalf("eviction broadcast never reached the owner: %v", err)
	}
}

// TestKilledPeerDegrades: with the key's owner dead, a request degrades to
// a local compile within the peer timeout, and the failed peer enters
// backoff so the next request skips it without a network round trip.
func TestKilledPeerDegrades(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)

	// A peer address that is dead from the start: reserve a port, close it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	svc, client := startServer(t, Config{
		Self: "127.0.0.1:1", Peers: []string{dead},
		PeerTimeout: 500 * time.Millisecond, PeerBackoff: time.Minute,
	})

	// Find two requests whose keys the dead peer owns.
	var reqs []*Request
	for n := uint64(4); len(reqs) < 2; n++ {
		r := distinctRequest(in, regions, n)
		k := requestKey(t, regions, r)
		if owner, self := svc.fleet.Owner(k); !self && owner == dead {
			reqs = append(reqs, r)
		}
	}

	begin := time.Now()
	resp, err := client.Specialize(context.Background(), reqs[0])
	if err != nil {
		t.Fatalf("request with dead owner failed: %v", err)
	}
	if resp.Source != "compile" {
		t.Fatalf("source = %q, want the local compile fallback", resp.Source)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("degradation took %v — not bounded by the peer timeout", elapsed)
	}

	// The dead peer is now in backoff: the next miss skips it entirely.
	if _, err := client.Specialize(context.Background(), reqs[1]); err != nil {
		t.Fatal(err)
	}
	m := svc.MetricsSnapshot()
	if m.PeerDegraded != 2 {
		t.Fatalf("peer_degraded = %d, want 2", m.PeerDegraded)
	}
	if m.Cluster == nil || m.Cluster.SkippedBackoff == 0 {
		t.Fatalf("cluster stats %+v: second request did not use the backoff skip", m.Cluster)
	}
	if fmt.Sprint(m.Cluster) == "" {
		t.Fatal("cluster stats unprintable")
	}
}

// segmentSizes lists the disk store's segment files in dir with their sizes.
func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[filepath.Base(p)] = fi.Size()
	}
	return sizes
}

// TestShutdownClosesDiskStore: a daemon restarted over a warm directory that
// serves only hits writes nothing, and its Shutdown closes the store, which
// removes the segment that run opened. Afterwards the artifact endpoints
// answer 503 instead of reaching the closed store.
func TestShutdownClosesDiskStore(t *testing.T) {
	dir := t.TempDir()
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})

	svc1, client1 := startServer(t, Config{CacheDir: dir})
	if _, err := client1.Specialize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	written := segmentSizes(t, dir)
	if len(written) != 1 {
		t.Fatalf("segments after the compiling run: %v, want one", written)
	}

	svc2, client2, url := startServerURL(t, Config{CacheDir: dir})
	<-svc2.Ready()
	for _, want := range []string{"disk", "memory"} {
		resp, err := client2.Specialize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != want {
			t.Fatalf("source = %q, want %q", resp.Source, want)
		}
	}
	if len(segmentSizes(t, dir)) != 2 {
		t.Fatal("the restarted store did not open a segment of its own")
	}
	if err := svc2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := segmentSizes(t, dir); !maps.Equal(got, written) {
		t.Fatalf("segments after a hits-only run: %v, want %v", got, written)
	}
	if _, ok := svc2.Engine().DiskStats(); ok {
		t.Fatal("the disk store is still attached after Shutdown")
	}
	key := requestKey(t, regions, req)
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		if status, body := httpDo(t, method, url+"/artifact/"+key.String(), nil); status != http.StatusServiceUnavailable {
			t.Fatalf("%s /artifact after Shutdown = %d %s, want 503", method, status, body)
		}
	}
}

// TestShutdownRacingArtifactGets runs artifact GETs and /metrics scrapes
// against a Shutdown that closes the disk store. Every GET is either served
// in full or refused with 503, and under -race the close shares no
// unsynchronized state with the handlers or the metrics readers.
func TestShutdownRacingArtifactGets(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	svc, client, url := startServerURL(t, Config{CacheDir: t.TempDir()})
	resp, err := client.Specialize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	artURL := url + "/artifact/" + resp.Key
	get := func(url string) (int, []byte, error) {
		res, err := http.Get(url)
		if err != nil {
			return 0, nil, err
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		return res.StatusCode, body, err
	}

	// Each reader signals running after its first served GET and stops at
	// its first 503: after Shutdown has returned, every GET is refused.
	var readers, running sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		running.Add(1)
		go func() {
			defer readers.Done()
			first := true
			for {
				status, body, err := get(artURL)
				if err != nil {
					t.Errorf("GET during shutdown: %v", err)
					break
				}
				if status == http.StatusServiceUnavailable {
					break
				}
				if status != http.StatusOK {
					t.Errorf("GET during shutdown = %d %s", status, body)
					break
				}
				if _, art, err := diskcache.Decode(body); err != nil || !bytes.Equal(art.Code, resp.Code) {
					t.Errorf("GET during shutdown served a damaged artifact (%v)", err)
					break
				}
				if _, _, err := get(url + "/metrics"); err != nil {
					t.Errorf("GET /metrics during shutdown: %v", err)
					break
				}
				if first {
					first = false
					running.Done()
				}
			}
			if first {
				running.Done()
			}
		}()
	}
	running.Wait()
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	readers.Wait()
	if status, _ := httpDo(t, http.MethodGet, artURL, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("GET after Shutdown = %d, want 503", status)
	}
}

// TestResponseKeyAddressesArtifact: the key a /specialize response carries
// is the one the artifact endpoints take, and fetches the same code bytes.
func TestResponseKeyAddressesArtifact(t *testing.T) {
	w, regions := newWorkloadSnapshot(t)
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := requestFor(in, regions, specCase{backend: "llvm", fix: true})
	_, client, url := startServerURL(t, Config{CacheDir: t.TempDir()})
	for _, want := range []string{"compile", "memory"} {
		resp, err := client.Specialize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != want {
			t.Fatalf("source = %q, want %q", resp.Source, want)
		}
		if k := requestKey(t, regions, req); resp.Key != k.String() {
			t.Fatalf("%s response key = %q, want %q", want, resp.Key, k)
		}
		status, body := httpDo(t, http.MethodGet, url+"/artifact/"+resp.Key, nil)
		if status != http.StatusOK {
			t.Fatalf("GET artifact by response key = %d %s", status, body)
		}
		if _, art, err := diskcache.Decode(body); err != nil || !bytes.Equal(art.Code, resp.Code) {
			t.Fatalf("artifact by response key does not hold the response's code (%v)", err)
		}
	}
}
