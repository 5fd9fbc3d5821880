package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	dbrewllvm "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/codecache"
	"repro/internal/dbrew"
	"repro/internal/service"
)

const (
	serveSide = 65
	// warmRequests is the warm-up pass, per client: enough to upload the
	// snapshot chunks, open the connections and fill a 32-entry cache (at
	// tiny scale, a 4-entry one).
	warmRequests     = 48
	warmRequestsTiny = 16
	// coldBudget is an instruction budget far beyond what any kernel needs.
	// The budget is part of the specialization key and changes nothing else,
	// so coldBudget+i is the i-th distinct key of one and the same compile.
	coldBudget = 1 << 24
)

// serve is dbrewd in-process behind an httptest listener, loaded by
// closed-loop clients: callers of a rewriter wait for their code, so there
// are no independent arrivals to model. One operation is one /specialize
// round trip of a line-kernel specialization, from building the request to
// the decoded response.
type serve struct {
	e       *env
	im      *image // the clients' address space: request snapshot and pristine oracle image
	regions []service.Region
	targets []*target // the line kernel of each structure, as the clients specialize it
	svc     *service.Service
	ts      *httptest.Server
	clients []*client
	dir     string
	// draw returns a client's request generator: which structure, which
	// budget, for each request in turn.
	draw func(rng *rand.Rand) func() (structure, budget int)
	// wantSource says which serving levels are right for this workload.
	wantSource func(string) bool
	seq        atomic.Int64

	oracleMu sync.Mutex
	verdicts map[string]verdict // by returned code bytes

	peerFetch []float64 // seconds per peer pull during set-up (serve_hits)

	// summed over the traced slices
	sources  map[string]int
	loadWall float64
	cache    codecache.Stats
	diskHits int64
}

type verdict struct {
	err        error
	spec, orig float64 // modelled cycles of the returned and the original code
	structure  int
	codeBytes  int
}

// client is one connection: its own service.Client and transport.
type client struct {
	c     *service.Client
	sizes []int64 // request body bytes, one per HTTP exchange
}

func (c *client) RoundTrip(r *http.Request) (*http.Response, error) {
	c.sizes = append(c.sizes, r.ContentLength)
	return http.DefaultTransport.RoundTrip(r)
}

// newServe builds the clients' side; start boots the daemon. The seed draws
// the image the clients upload and what they ask for.
func newServe(e *env, name string) (*serve, error) {
	im, err := newImage(serveSide, e.seed)
	if err != nil {
		return nil, err
	}
	s := &serve{e: e, im: im, regions: service.SnapshotRegions(im.eng.Mem),
		verdicts: map[string]verdict{}, sources: map[string]int{}}
	for _, st := range structures {
		s.targets = append(s.targets, im.target(bench.Line, st))
	}
	s.dir, err = os.MkdirTemp(e.tmp, name+"-")
	return s, err
}

// start boots the serving daemon over the workload's artifact directory and
// connects the clients.
func (s *serve) start(capacity int) error {
	s.svc = service.New(service.Config{CacheDir: filepath.Join(s.dir, "cache"), CacheCapacity: capacity})
	s.ts = httptest.NewServer(s.svc)
	<-s.svc.Ready()
	for i := 0; i < s.e.clients; i++ {
		c := &client{c: service.NewClient(s.ts.URL)}
		c.c.HTTPClient = &http.Client{Transport: c}
		c.c.EnableDeltaSnapshots()
		s.clients = append(s.clients, c)
	}
	return s.svc.WarmError()
}

func (s *serve) close() {
	if s.ts != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.svc.Shutdown(ctx) // drains; the listener closes next either way
		cancel()
		s.ts.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(s.dir)
}

func (s *serve) request(structure, budget int) *service.Request {
	t := s.targets[structure]
	return &service.Request{
		Regions:     s.regions,
		Entry:       t.spec,
		Sig:         service.SigFromABI(t.sig),
		FixedParams: []service.ParamFix{{Idx: 0, Value: t.fix.addr, Ptr: true, Size: t.fix.size}},
		Limits:      &service.Limits{MaxInsts: budget},
	}
}

// verify is the oracle for a response: the returned code is placed into the
// clients' own image — which the daemon never saw, only its snapshot — and
// run over an interior row against the Go reference. Verdicts are kept by
// code bytes: identical bytes behave identically, so each distinct answer is
// executed once and every response is still checked.
func (s *serve) verify(structure int, code []byte) error {
	s.oracleMu.Lock()
	defer s.oracleMu.Unlock()
	key := string(code)
	v, ok := s.verdicts[key]
	if !ok {
		v = verdict{structure: structure, codeBytes: len(code)}
		t := s.targets[structure]
		entry := s.im.eng.PlaceCode(code, "bench.response")
		v.spec, v.err = s.im.runKernel(bench.Line, t, compiled{entry: entry}, 1)
		if v.err == nil {
			v.orig, v.err = s.im.runKernel(bench.Line, t, compiled{entry: t.spec}, 1)
		}
		s.verdicts[key] = v
	}
	if v.err == nil && v.structure != structure {
		return fmt.Errorf("response for structure %d carries the code of structure %d", structure, v.structure)
	}
	return v.err
}

// static sums over the distinct correct answers seen: one per structure.
func (s *serve) static() static {
	s.oracleMu.Lock()
	defer s.oracleMu.Unlock()
	var st static
	var ratios []float64
	for _, v := range s.verdicts {
		if v.err == nil {
			st.codeBytes += v.codeBytes
			ratios = append(ratios, v.spec/v.orig)
		}
	}
	st.cyclesRatio = geomean(ratios)
	return st
}

type served struct {
	sec    float64 // wall-clock seconds of the round trip
	err    error
	source string
}

// sliceLen is how long the clients run between two looks at the machine's
// speed. The closed loop is cut into slices because the calibration kernel
// must not share the processors with the daemon: at the end of a slice every
// client has its answer, the kernel runs alone, and the next slice's samples
// are scaled by what it measured. Connections, caches and each client's
// request sequence carry over from slice to slice.
const sliceLen = 200 * time.Millisecond

// measure runs the closed loop: every client sends its next request as soon
// as the previous one is answered and checked, in slices until d has passed.
// The warm-up and every phase at tiny scale are one slice of a fixed number of
// requests per client.
func (s *serve) measure(rec *recorder, tr *tracer, d time.Duration) {
	cacheBefore, _ := s.svc.Engine().CacheStats()
	diskBefore, _ := s.svc.Engine().DiskStats()
	next := make([]func() (int, int), len(s.clients))
	for ci := range next {
		next[ci] = s.draw(rand.New(rand.NewSource(s.e.seed*1000 + int64(ci))))
	}
	fixed := d == 0 || s.e.tiny
	for start := time.Now(); ; {
		s.slice(rec, tr, next, fixed)
		if fixed || time.Since(start) >= d {
			break
		}
	}
	if tr != nil && rec != nil {
		cs, _ := s.svc.Engine().CacheStats()
		s.cache.Hits += cs.Hits - cacheBefore.Hits
		s.cache.Misses += cs.Misses - cacheBefore.Misses
		s.cache.Waits += cs.Waits - cacheBefore.Waits
		s.cache.Evictions += cs.Evictions - cacheBefore.Evictions
		ds, _ := s.svc.Engine().DiskStats()
		s.diskHits += ds.Hits - diskBefore.Hits
	}
}

func (s *serve) slice(rec *recorder, tr *tracer, next []func() (int, int), fixed bool) {
	factor := 1.0
	if rec != nil {
		factor = s.e.cal.factor()
	}
	perClient := make([][]served, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(sliceLen)
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for n := 0; ; n++ {
				if fixed && n >= s.e.pick(warmRequests, warmRequestsTiny) || !fixed && !time.Now().Before(deadline) {
					return
				}
				perClient[ci] = append(perClient[ci], s.one(c, next[ci], tr))
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if rec == nil {
		return
	}
	for _, results := range perClient {
		for _, r := range results {
			rec.op("request", r.sec*factor, r.err)
			if tr != nil {
				s.sources[r.source]++
			}
		}
	}
	rec.endPass(wall * factor)
	if tr != nil {
		s.loadWall += wall
	}
}

// one is one operation. A refusal, a 429, a 504, any other error, an answer
// from the wrong level and a wrong answer all count as failed.
func (s *serve) one(c *client, next func() (int, int), tr *tracer) served {
	structure, budget := next()
	ctx := tr.newOp("request")
	var resp *service.Response
	var err error
	t0 := time.Now()
	req := s.request(structure, budget)
	if tr == nil {
		resp, err = c.c.Specialize(context.Background(), req)
	} else {
		resp, err = c.c.SpecializeTraced(context.Background(), req)
	}
	t1 := time.Now()
	out := served{sec: t1.Sub(t0).Seconds(), err: err}
	if err != nil {
		return out
	}
	if ctx != nil {
		ctx.parent = tr.add("client.specialize", "request", -1, ctx.op, t0, t1)
		ctx.importTrace(decodeWireTrace(resp.Trace))
	}
	out.source = resp.Source
	if !s.wantSource(resp.Source) {
		out.err = fmt.Errorf("served from %q", resp.Source)
	} else {
		out.err = s.verify(structure, resp.Code)
	}
	return out
}

// localEngine is an in-process engine over the same snapshot, for the
// in-process side of service.overhead_us.
func (s *serve) localEngine() (*dbrewllvm.Engine, error) {
	eng := dbrewllvm.NewEngine()
	eng.EnableCache(1024)
	for _, rg := range s.regions {
		if _, err := eng.Mem.MapBytes(rg.Addr, rg.Data, "image"); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// rewriter configures, on another engine holding the same image, the Rewrite
// a request for (structure, budget) makes the daemon run.
func (s *serve) rewriter(eng *dbrewllvm.Engine, structure, budget int) *dbrewllvm.Rewriter {
	t := *s.targets[structure]
	t.eng = eng
	rw := t.rewriter()
	rw.SetConfig(dbrew.Config{MaxInsts: budget})
	return rw
}

// inProcess times Rewrite on a local engine: n cold compiles of fresh keys
// per structure, then n warm hits of one key. It returns the medians.
func (s *serve) inProcess(n int) (cold, warm float64, err error) {
	eng, err := s.localEngine()
	if err != nil {
		return 0, 0, err
	}
	var colds, warms []float64
	for i := 0; i < n; i++ {
		for st := range s.targets {
			rw := s.rewriter(eng, st, coldBudget+i)
			sec := s.e.timed(func() { _, err = rw.Rewrite() })
			colds = append(colds, sec)
			if err != nil {
				return 0, 0, err
			}
		}
	}
	for i := 0; i < n*10; i++ {
		rw := s.rewriter(eng, i%len(s.targets), coldBudget)
		sec := s.e.timed(func() { _, err = rw.Rewrite() })
		warms = append(warms, sec)
		if err != nil || !rw.CacheHit {
			return 0, 0, fmt.Errorf("warm Rewrite: err %v, hit %v", err, rw.CacheHit)
		}
	}
	return median(colds), median(warms), nil
}

func (s *serve) layers(m layerMetrics, tr *tracer) {
	st := tr.stats()
	setPipelineLayers(m, st)
	roundTrips := st["client.specialize"].all()
	m.set("service.requests", float64(len(roundTrips)))
	m.set("service.src_memory", float64(s.sources["memory"]))
	m.set("service.src_disk", float64(s.sources["disk"]))
	m.set("service.src_compile", float64(s.sources["compile"]))
	snap := s.svc.MetricsSnapshot()
	m.set("service.rejected", float64(snap.RejectedOverload))
	m.set("service.timeouts", float64(snap.DeadlineExceeded))
	var sizes []float64
	for _, c := range s.clients {
		for _, b := range c.sizes {
			sizes = append(sizes, float64(b))
		}
	}
	m.set("service.request_bytes", median(sizes))

	// Waiting: the admission span, plus the part of the cache lookup that is
	// neither disk nor pipeline — where queueing for the compile lock shows.
	wait := median(st["service.admission"].all())
	if l := st["codecache.lookup"]; l != nil {
		wait += median(l.selfs)
	}
	m.set("service.queue_wait_us", wait*1e6)
	var compile float64
	for _, name := range []string{"dbrew.rewrite", "lift.decode", "lift.translate", "opt.optimize", "jit.compile"} {
		if st[name] != nil {
			compile += st[name].total
		}
	}
	m.set("service.compile_parallelism", compile/(s.loadWall*s.e.cal.speed()))

	cold, warm, err := s.inProcess(s.e.pick(20, 3))
	if err != nil {
		panic(fmt.Sprintf("in-process probe: %v", err))
	}
	m.set("codecache.hit_ns", warm*1e9)
	inproc := warm
	if s.sources["compile"] > 0 {
		inproc = cold
	}
	m.set("service.overhead_us", (median(roundTrips)-inproc)*1e6)

	m.set("codecache.hits", float64(s.cache.Hits))
	m.set("codecache.misses", float64(s.cache.Misses))
	m.set("codecache.waits", float64(s.cache.Waits))
	m.set("codecache.evictions", float64(s.cache.Evictions))
	m.set("diskcache.get_us", median(st["diskcache.get"].all())*1e6)
	m.set("diskcache.put_us", median(st["diskcache.put"].all())*1e6)
	m.set("diskcache.hits", float64(s.diskHits))
	if ds, ok := s.svc.Engine().DiskStats(); ok {
		m.set("diskcache.bytes", float64(ds.Bytes))
	}
	m.set("cluster.peer_fetch_ms", median(s.peerFetch)*1e3)
}

// setUpServeCold: every request is a key the daemon has never seen, cycling
// the three structures, so every request compiles. The daemon writes through
// to its disk store as a deployed dbrewd does.
func setUpServeCold(e *env) (instance, error) {
	s, err := newServe(e, "serve_cold")
	if err != nil {
		return nil, err
	}
	s.draw = func(rng *rand.Rand) func() (int, int) {
		return func() (int, int) {
			return rng.Intn(len(s.targets)), coldBudget + int(s.seq.Add(1))
		}
	}
	s.wantSource = func(src string) bool { return src == "compile" }
	if err := s.start(0); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

const peerPlaceholder = "puller.invalid:1"

// setUpServeHits: 128 keys are compiled on a second fleet node, pulled to
// this node's disk store by peer fetch, and the daemon is restarted over that
// store with a 32-entry memory cache. Requests then draw keys Zipf(1.1): head
// keys stay in memory, tail keys fall to disk, nothing compiles.
func setUpServeHits(e *env) (instance, error) {
	keys := e.pick(128, 12)
	capacity := e.pick(32, 4)
	s, err := newServe(e, "serve_hits")
	if err != nil {
		return nil, err
	}
	budgets, err := s.pullFromPeer(keys, capacity)
	if err == nil {
		err = s.start(capacity)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.draw = func(rng *rand.Rand) func() (int, int) {
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
		return func() (int, int) {
			k := int(zipf.Uint64())
			return k % len(s.targets), budgets[k]
		}
	}
	s.wantSource = func(src string) bool { return src == "memory" || src == "disk" }
	return s, nil
}

// pullFromPeer fills the serving node's disk store the way a fleet does: an
// owner node compiles each key, a puller node whose store is the serving
// node's directory fetches the artifact from it, and the serving daemon is
// then restarted over that directory. Each key's budget is nudged until the
// ring assigns the key to the owner, so the owner never dials the puller's
// placeholder address.
func (s *serve) pullFromPeer(keys, capacity int) ([]int, error) {
	cacheDir := filepath.Join(s.dir, "cache")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ownerAddr := ln.Addr().String()
	owner := service.New(service.Config{Self: ownerAddr, Peers: []string{peerPlaceholder}})
	ownerSrv := &http.Server{Handler: owner}
	served := make(chan struct{})
	go func() { ownerSrv.Serve(ln); close(served) }()
	defer func() { ownerSrv.Close(); <-served }()

	puller := service.New(service.Config{Self: peerPlaceholder, Peers: []string{ownerAddr},
		CacheDir: cacheDir, CacheCapacity: capacity})
	pullerSrv := httptest.NewServer(puller)
	defer pullerSrv.Close()
	<-puller.Ready()
	if err := puller.WarmError(); err != nil {
		return nil, err
	}

	local, err := s.localEngine()
	if err != nil {
		return nil, err
	}
	ring := cluster.New(peerPlaceholder, []string{ownerAddr}, cluster.Options{})
	ownerClient, pullClient := service.NewClient("http://"+ownerAddr), service.NewClient(pullerSrv.URL)
	ctx := context.Background()
	budgets := make([]int, keys)
	budget := coldBudget
	for k := range budgets {
		for ; ; budget++ {
			key, ok := s.rewriter(local, k%len(s.targets), budget).CacheKey()
			if !ok {
				return nil, errors.New("specialization key not derivable")
			}
			if o, self := ring.Owner(key); !self && o == ownerAddr {
				break
			}
		}
		budgets[k] = budget
		budget++
		req := s.request(k%len(s.targets), budgets[k])
		if _, err := ownerClient.Specialize(ctx, req); err != nil {
			return nil, fmt.Errorf("owner compile of key %d: %w", k, err)
		}
		t0 := time.Now()
		resp, err := pullClient.Specialize(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("peer pull of key %d: %w", k, err)
		}
		if resp.Source != "peer" {
			return nil, fmt.Errorf("key %d came from %q, want a peer fetch", k, resp.Source)
		}
		s.peerFetch = append(s.peerFetch, time.Since(t0).Seconds())
	}
	return budgets, puller.Shutdown(ctx)
}
