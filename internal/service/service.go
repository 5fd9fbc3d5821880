package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dbrewllvm "repro"
	"repro/internal/cluster"
	"repro/internal/codecache"
	"repro/internal/dbrew"
	"repro/internal/tier"
	"repro/internal/trace"
)

// Config tunes the daemon; zero fields select the documented defaults.
type Config struct {
	// Workers bounds concurrent compile slots (default 4), and with them
	// the number of compiles that run in parallel.
	Workers int
	// QueueDepth bounds requests waiting for a compile slot; a request
	// arriving with the queue full is rejected with 429 (default 64).
	QueueDepth int
	// DefaultDeadline applies to requests that carry no deadline_ms
	// (default 30s); MaxDeadline clamps client-requested deadlines
	// (default 2m). A deadline that passes while a request is queued or
	// coalesced yields 504.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheCapacity bounds the engine's specialization cache (default
	// 1024 entries).
	CacheCapacity int
	// MaxBodyBytes bounds the request body, and therefore the uploaded
	// image size (default 64 MiB).
	MaxBodyBytes int64

	// CacheDir, when non-empty, enables the persistent artifact store: the
	// engine's disk cache level opens over this directory (asynchronously —
	// /healthz answers 503 "warming" until the index load finishes) and
	// restarts over the same directory serve previous compilations without
	// recompiling.
	CacheDir string
	// CacheBytes bounds the disk store's total payload bytes (<= 0 selects
	// diskcache.DefaultMaxBytes).
	CacheBytes int64

	// FastpathDeadline switches deadline-pressured requests to the fastpath
	// compile strategy: when a request's remaining deadline budget (after
	// clamping) is below this threshold, the rewriter uses the DBrew backend
	// — DBrew's specialization alone, the code tier 1 installs, without the
	// lift, O3 and JIT stages. The compile is much cheaper and the code is
	// still specialized, just not optimized by the LLVM-style backend. Zero
	// disables the automatic switch (every request takes the full pipeline);
	// cmd/dbrewd enables it at 250ms by default. Response.Strategy reports
	// the choice per request.
	FastpathDeadline time.Duration

	// ChunkBytes bounds the delta-snapshot chunk store's payload bytes
	// (<= 0 selects 64 MiB). Evicted chunks are re-shipped by clients after
	// a 412, so the bound trades upload bytes for memory, never correctness.
	ChunkBytes int64

	// Self is this node's advertised host:port for fleet mode. Setting Self
	// and Peers turns on peer artifact sharing: cache keys are owned by
	// consistent hashing over the member list, misses fetch from (or
	// forward to) the owner before compiling locally, and evictions are
	// broadcast to the owner.
	Self string
	// Peers is the static fleet member list (host:port each); Self is
	// implied, so every node can ship the identical list.
	Peers []string
	// PeerTimeout bounds each peer interaction; on expiry the request
	// degrades to a local compile (default 2s).
	PeerTimeout time.Duration
	// PeerBackoff is how long a failed peer is skipped before being retried
	// (default 5s, doubling per consecutive failure).
	PeerBackoff time.Duration

	// warmHook, when non-nil, runs inside the warming goroutine before the
	// disk index load — a test seam for pinning the warming state.
	warmHook func()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.PeerBackoff <= 0 {
		c.PeerBackoff = 5 * time.Second
	}
	return c
}

// errOverloaded marks an admission rejection (queue full) internally.
var errOverloaded = errors.New("service: admission queue full")

// Compile strategies, as reported in Response.Strategy and the
// dbrew_service_strategy_total metric.
const (
	strategyFull     = "full"
	strategyFastpath = "fastpath"
)

// Service is the dbrewd HTTP handler: one engine, one specialization
// cache, a bounded admission pool, and the /specialize, /healthz, and
// /metrics endpoints. Create it with New and serve it with net/http.
type Service struct {
	cfg Config
	eng *dbrewllvm.Engine
	mux *http.ServeMux

	// regionMu serializes snapshot placement (content-addressed reuse vs.
	// fresh mapping) so concurrent identical uploads cannot race Map. It
	// also guards placed, the chunk-hash list of the delta region last
	// verified or mapped at each address.
	regionMu sync.Mutex
	placed   map[uint64]placedRegion

	// slots is the compile-slot semaphore; queued counts requests waiting
	// for a slot (bounded by QueueDepth); active counts slots in use.
	slots  chan struct{}
	queued atomic.Int64
	active atomic.Int64

	// shutMu guards closed; wg tracks accepted in-flight requests so
	// Shutdown can drain them.
	shutMu sync.Mutex
	closed bool
	wg     sync.WaitGroup

	requests, okCount, badReq, rejected, deadlines, errCount, cacheHits atomic.Int64

	// Strategy counters: fastpathServed counts 200s compiled (or served)
	// under the fastpath strategy, fullServed the full-pipeline rest.
	fastpathServed, fullServed atomic.Int64

	// Fleet counters: peerHits are requests served by adopting an owner's
	// artifact, peerForwards are requests forwarded to their owner for
	// compilation, peerDegraded are fleet paths that fell back to a local
	// compile (peer down, timeout, or error), and forwardServed are
	// forwarded requests this node compiled as owner.
	peerHits, peerForwards, peerDegraded, forwardServed atomic.Int64

	// fleet is the peer-sharing client; nil outside fleet mode.
	fleet *cluster.Client

	// chunks backs delta snapshots: the content-defined chunk payloads
	// clients may omit from later requests. deltaRequests counts delta-form
	// requests, deltaMisses the 412 missing-chunk replies, deltaBytesSaved
	// the region bytes reconstructed instead of shipped.
	chunks                                      *chunkStore
	deltaRequests, deltaMisses, deltaBytesSaved atomic.Int64

	// ready is closed once the disk-cache index has loaded (immediately
	// when no CacheDir is configured); until then /healthz answers 503
	// "warming" and request handlers block, bounded by their deadlines.
	// warmErr records a failed disk-cache open (the service then runs
	// without persistence — the disk level is an optimization).
	ready   chan struct{}
	warmErr atomic.Pointer[error]

	latency tier.LatencyHistogram

	// reg is the Prometheus-text-format registry behind GET /metrics: the
	// service counters plus every engine counter, registered once at New.
	reg *trace.Registry

	// compileHook, when non-nil, runs while holding a freshly acquired
	// compile slot — a test seam for pinning admission-control states.
	compileHook func()
}

// New builds a Service with its own engine and enabled specialization
// cache.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:    cfg,
		eng:    dbrewllvm.NewEngine(),
		mux:    http.NewServeMux(),
		slots:  make(chan struct{}, cfg.Workers),
		ready:  make(chan struct{}),
		chunks: newChunkStore(cfg.ChunkBytes),
		placed: make(map[uint64]placedRegion),
	}
	s.eng.EnableCache(cfg.CacheCapacity)
	if cfg.Self != "" && len(cfg.Peers) > 0 {
		s.fleet = cluster.New(cfg.Self, cfg.Peers, cluster.Options{
			Timeout: cfg.PeerTimeout,
			Backoff: cfg.PeerBackoff,
		})
		// Explicit removals (deopt, DELETE /artifact) propagate to the
		// owning peer after the local levels dropped the key; Evict no-ops
		// when this node is the owner, so broadcasts cannot loop.
		s.eng.SetEvictNotifier(func(k codecache.Key) {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.PeerTimeout)
			defer cancel()
			s.fleet.Evict(ctx, k)
		})
	}
	s.reg = trace.NewRegistry()
	s.eng.RegisterMetrics(s.reg)
	s.registerMetrics()
	s.mux.HandleFunc("POST /specialize", s.handleSpecialize)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /artifact/{key}", s.handleArtifactGet)
	s.mux.HandleFunc("DELETE /artifact/{key}", s.handleArtifactDelete)
	if cfg.CacheDir == "" {
		close(s.ready)
	} else {
		// The disk index load (directory scan + LRU seeding) can be slow on
		// large caches; warm in the background so the listener comes up
		// immediately, with /healthz reporting "warming" until done. No
		// request touches the engine before ready closes, so the late
		// EnableDiskCache cannot race an in-flight Rewrite.
		go func() {
			defer close(s.ready)
			if cfg.warmHook != nil {
				cfg.warmHook()
			}
			if err := s.eng.EnableDiskCache(cfg.CacheDir, cfg.CacheBytes); err != nil {
				err = fmt.Errorf("service: disk cache disabled: %w", err)
				s.warmErr.Store(&err)
			}
		}()
	}
	return s
}

// Ready returns a channel closed once the service finished warming (the
// disk-cache index load); it is closed from the start when no CacheDir is
// configured.
func (s *Service) Ready() <-chan struct{} { return s.ready }

// WarmError reports a failed disk-cache open after warming finished; the
// service stays up and compiles without persistence in that case.
func (s *Service) WarmError() error {
	if p := s.warmErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Engine returns the daemon's engine (for embedding applications that want
// to inspect or pre-populate the address space).
func (s *Service) Engine() *dbrewllvm.Engine { return s.eng }

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// enter registers an in-flight request unless the service is draining.
func (s *Service) enter() bool {
	s.shutMu.Lock()
	defer s.shutMu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// Shutdown stops admitting new requests and blocks until every accepted
// request has finished (drained through its compile or cache wait), or ctx
// expires. Accepted requests are never dropped: they keep their compile
// slots and complete normally. After a complete drain it closes the disk
// store, which removes the store's segment if this run wrote nothing to it;
// every request handler, /artifact included, answers 503 from then on.
func (s *Service) Shutdown(ctx context.Context) error {
	s.shutMu.Lock()
	s.closed = true
	s.shutMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// The store opens in the warming goroutine: wait for it too, so the
	// close cannot run before the open.
	for _, ch := range []<-chan struct{}{done, s.ready} {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.eng.DisableDiskCache()
	return nil
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.shutMu.Lock()
	closed := s.closed
	s.shutMu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "shutting-down"})
		return
	}
	select {
	case <-s.ready:
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "warming"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// registerMetrics exports the service counters into the registry, alongside
// the engine metrics registered by New.
func (s *Service) registerMetrics() {
	counter := func(name, help string, v *atomic.Int64) {
		s.reg.Counter(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("dbrew_service_requests_total", "Specialization requests received.", &s.requests)
	counter("dbrew_service_ok_total", "Requests answered 200.", &s.okCount)
	counter("dbrew_service_bad_request_total", "Requests rejected as malformed.", &s.badReq)
	counter("dbrew_service_rejected_total", "Requests rejected by admission control (429).", &s.rejected)
	counter("dbrew_service_deadline_total", "Requests that exceeded their deadline (504).", &s.deadlines)
	counter("dbrew_service_errors_total", "Requests failed with a 5xx pipeline error.", &s.errCount)
	counter("dbrew_service_cache_hits_total", "Requests served from the specialization cache.", &s.cacheHits)
	s.reg.CounterVec("dbrew_service_strategy_total", "Successful requests by compile strategy.",
		func() []trace.Sample {
			return []trace.Sample{
				{Label: `strategy="full"`, Value: float64(s.fullServed.Load())},
				{Label: `strategy="fastpath"`, Value: float64(s.fastpathServed.Load())},
			}
		})
	counter("dbrew_service_peer_hits_total", "Requests served by adopting a peer's artifact.", &s.peerHits)
	counter("dbrew_service_peer_forwards_total", "Requests forwarded to their owning peer for compilation.", &s.peerForwards)
	counter("dbrew_service_peer_degraded_total", "Fleet requests that fell back to a local compile.", &s.peerDegraded)
	counter("dbrew_service_forward_served_total", "Forwarded requests compiled by this node as owner.", &s.forwardServed)
	counter("dbrew_service_delta_requests_total", "Requests that arrived in delta (chunked) form.", &s.deltaRequests)
	counter("dbrew_service_delta_misses_total", "Missing-chunk (412) replies to delta requests.", &s.deltaMisses)
	counter("dbrew_service_delta_bytes_saved_total", "Region bytes reconstructed from the chunk store instead of shipped.", &s.deltaBytesSaved)
	s.reg.Gauge("dbrew_service_chunk_store_entries", "Chunks held by the delta chunk store.",
		func() float64 { entries, _, _ := s.chunks.stats(); return float64(entries) })
	s.reg.Gauge("dbrew_service_chunk_store_bytes", "Payload bytes held by the delta chunk store.",
		func() float64 { _, bytes, _ := s.chunks.stats(); return float64(bytes) })
	s.reg.Counter("dbrew_service_chunk_store_evictions_total", "Chunks evicted by the store's byte budget.",
		func() float64 { _, _, ev := s.chunks.stats(); return float64(ev) })
	cluster.RegisterMetrics(s.reg, "dbrew_cluster", func() (cluster.Stats, bool) {
		if s.fleet == nil {
			return cluster.Stats{}, false
		}
		return s.fleet.Stats(), true
	})
	s.reg.Gauge("dbrew_service_queued", "Requests waiting for a compile slot.",
		func() float64 { return float64(s.queued.Load()) })
	s.reg.Gauge("dbrew_service_active", "Compile slots currently in use.",
		func() float64 { return float64(s.active.Load()) })
	s.reg.Histogram("dbrew_service_latency_seconds", "End-to-end /specialize latency.",
		func() trace.HistogramData { return s.latency.Snapshot().HistogramData() })
}

// handleMetrics serves the unified registry in Prometheus text format by
// default; the legacy JSON snapshot remains available via ?format=json or an
// "Accept: application/json" header.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
		return
	}
	s.reg.ServeHTTP(w, r)
}

// MetricsSnapshot assembles the /metrics payload: service counters plus the
// engine's CacheStats/TierStats via Engine.StatsJSON's struct.
func (s *Service) MetricsSnapshot() Metrics {
	es := s.eng.Stats()
	m := Metrics{
		Requests:         s.requests.Load(),
		OK:               s.okCount.Load(),
		BadRequests:      s.badReq.Load(),
		RejectedOverload: s.rejected.Load(),
		DeadlineExceeded: s.deadlines.Load(),
		Errors:           s.errCount.Load(),
		CacheHits:        s.cacheHits.Load(),
		QueueDepth:       s.queued.Load(),
		ActiveCompiles:   s.active.Load(),
		LatencyUSLog2:    s.latency.Snapshot(),
		FastpathServed:   s.fastpathServed.Load(),
		FullServed:       s.fullServed.Load(),
		Engine:           es,
	}
	if es.Cache != nil {
		m.CoalesceHits = es.Cache.Waits
	}
	m.DeltaRequests = s.deltaRequests.Load()
	m.DeltaMisses = s.deltaMisses.Load()
	m.DeltaBytesSaved = s.deltaBytesSaved.Load()
	if s.fleet != nil {
		m.PeerHits = s.peerHits.Load()
		m.PeerForwards = s.peerForwards.Load()
		m.PeerDegraded = s.peerDegraded.Load()
		m.ForwardServed = s.forwardServed.Load()
		st := s.fleet.Stats()
		m.Cluster = &st
	}
	return m
}

func (s *Service) handleSpecialize(w http.ResponseWriter, r *http.Request) {
	if !s.enter() {
		writeError(w, http.StatusServiceUnavailable, "", "service is shutting down")
		return
	}
	defer s.wg.Done()
	s.requests.Add(1)
	start := time.Now()
	defer func() { s.latency.Add(time.Since(start)) }()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badReq.Add(1)
		writeError(w, http.StatusBadRequest, "", "decoding request: "+err.Error())
		return
	}

	// ?trace=1 captures a per-request pipeline trace: an "admission" span
	// plus the rewriter's stage spans, returned in Response.Trace.
	var tr *trace.Trace
	if r.URL.Query().Get("trace") == "1" {
		tr = trace.New("specialize")
	}

	resp, status, stage, err := s.specialize(r.Context(), &req, tr, r.Header.Get(forwardHeader) != "")
	if err != nil {
		switch {
		case status == http.StatusTooManyRequests:
			s.rejected.Add(1)
		case status == http.StatusGatewayTimeout:
			s.deadlines.Add(1)
		case status == http.StatusPreconditionFailed:
			// The delta handshake, not a failure; counted via deltaMisses.
		case status >= 500:
			s.errCount.Add(1)
		default:
			s.badReq.Add(1)
		}
		var mc *missingChunksError
		if errors.As(err, &mc) {
			writeJSON(w, status, ErrorBody{Error: err.Error(), Missing: mc.hashes})
			return
		}
		writeError(w, status, stage, err.Error())
		return
	}
	s.okCount.Add(1)
	if resp.CacheHit {
		s.cacheHits.Add(1)
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	if tr != nil {
		tr.Finish()
		resp.Trace = tr.JSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

// specialize runs one request through placement, the fleet fast paths
// (peer fetch, owner forward), admission, and the rewriter, returning the
// response or (status, stage, error) on failure. tr (which may be nil)
// receives the admission span and the rewriter's pipeline spans. forwarded
// marks a request relayed by a fleet peer: it must be answered locally,
// never forwarded again.
func (s *Service) specialize(ctx context.Context, req *Request, tr *trace.Trace, forwarded bool) (*Response, int, string, error) {
	// Delta-form regions materialize first: validation, placement, key
	// derivation, and fleet forwarding all want plain bytes.
	msp := tr.Start("materialize")
	err := s.materializeRegions(req)
	msp.EndErr(err)
	if err != nil {
		var mc *missingChunksError
		if errors.As(err, &mc) {
			return nil, http.StatusPreconditionFailed, "", err
		}
		return nil, http.StatusBadRequest, "", err
	}
	if err := validate(req); err != nil {
		return nil, http.StatusBadRequest, "", err
	}
	sig, err := req.Sig.ABISignature()
	if err != nil {
		return nil, http.StatusBadRequest, "", err
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	// Strategy selection: a request whose remaining budget is below the
	// configured threshold cannot afford the optimizer — compile it with the
	// DBrew backend alone instead of risking a 504. Decided from
	// the context deadline (not the nominal request deadline), so time
	// already burned upstream counts against the budget.
	strategy := strategyFull
	if s.cfg.FastpathDeadline > 0 {
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < s.cfg.FastpathDeadline {
			strategy = strategyFastpath
		}
	}

	// The engine is off limits until the disk-cache index finished loading.
	select {
	case <-s.ready:
	case <-ctx.Done():
		return nil, http.StatusGatewayTimeout, "", fmt.Errorf("deadline expired while the cache index was warming: %w", ctx.Err())
	}

	rsp := tr.Start("regions")
	err = s.ensureRegions(req.Regions)
	rsp.EndErr(err)
	if err != nil {
		return nil, http.StatusConflict, "", err
	}

	rw := dbrewllvm.NewRewriter(s.eng, req.Entry, sig)
	rw.Strict = true
	rw.FastMath = !req.NoFastMath
	rw.ForceVectorWidth = req.ForceVectorWidth
	switch req.Backend {
	case "", "llvm":
		rw.SetBackend(dbrewllvm.BackendLLVM)
	case "dbrew":
		rw.SetBackend(dbrewllvm.BackendDBrew)
	default:
		return nil, http.StatusBadRequest, "", fmt.Errorf("unknown backend %q (want llvm or dbrew)", req.Backend)
	}
	if strategy == strategyFastpath {
		rw.SetBackend(dbrewllvm.BackendDBrew)
	}
	if req.Limits != nil {
		rw.SetConfig(dbrew.Config{
			BufferSize:  req.Limits.BufferSize,
			MaxInsts:    req.Limits.MaxInsts,
			InlineDepth: req.Limits.InlineDepth,
		})
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

	// Coalescing: a request whose specialization key is already cached or
	// compiling joins the existing entry/flight inside RewriteCtx — it
	// never starts a compile, so it bypasses admission entirely and leaves
	// the compile slots to requests that need them. The peek is advisory;
	// losing the race just means one extra admitted request that then hits
	// the cache.
	needSlot := true
	key, keyed := rw.CacheKey()
	if keyed {
		cached, inflight, peeked := s.eng.CachePeek(key)
		if peeked && (cached || inflight) {
			needSlot = false
		} else if s.fleet != nil && !forwarded {
			// Fleet fast path: the key's owner may already hold (or be
			// compiling) this artifact. Resolved responses return from here;
			// a nil response degrades to the local compile below.
			if resp, status, stage, err, done := s.fleetSpecialize(ctx, req, key, tr); done {
				if resp != nil {
					resp.Key = key.String()
				}
				return resp, status, stage, err
			}
		}
	}
	if forwarded {
		s.forwardServed.Add(1)
	}
	asp := tr.Start("admission").Int("queued", s.queued.Load()).Int("active", s.active.Load())
	if needSlot {
		release, err := s.admit(ctx)
		if err != nil {
			if errors.Is(err, errOverloaded) {
				asp.Outcome("rejected: queue full").End()
				return nil, http.StatusTooManyRequests, "", errors.New("admission queue full, retry later")
			}
			asp.EndErr(err)
			return nil, http.StatusGatewayTimeout, "", fmt.Errorf("deadline expired while queued for a compile slot: %w", err)
		}
		defer release()
		asp.End()
	} else {
		asp.Outcome("coalesced").End()
	}

	rw.Trace = tr
	addr, err := rw.RewriteCtx(ctx)
	if err != nil {
		status, stage := statusForError(err)
		return nil, status, stage, err
	}
	code, err := s.eng.Mem.Read(addr, rw.CodeSize)
	if err != nil {
		return nil, http.StatusInternalServerError, "", fmt.Errorf("reading generated code: %w", err)
	}

	if strategy == strategyFastpath {
		s.fastpathServed.Add(1)
	} else {
		s.fullServed.Add(1)
	}
	resp := &Response{
		Addr:     addr,
		Code:     code,
		CacheHit: rw.CacheHit,
		Source:   rw.Source,
		Strategy: strategy,
		Stats: CompileStats{
			Decoded:    rw.Stats.Decoded,
			Emitted:    rw.Stats.Emitted,
			Eliminated: rw.Stats.Eliminated,
			Inlined:    rw.Stats.Inlined,
			CodeSize:   rw.CodeSize,
			Failed:     rw.Stats.Failed,
		},
	}
	if keyed {
		resp.Key = key.String()
	}
	if req.IncludeIR {
		if lr, err := s.eng.Lift(addr, "service_result", sig); err == nil {
			resp.IR = lr.IR()
		}
	}
	return resp, http.StatusOK, "", nil
}

// admit acquires a compile slot, queueing up to QueueDepth requests behind
// the Workers slots. It returns errOverloaded when the queue is full and
// ctx.Err() when the deadline passes while queued; on success the returned
// release function must be called once.
func (s *Service) admit(ctx context.Context) (func(), error) {
	select {
	case s.slots <- struct{}{}:
	default:
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			return nil, errOverloaded
		}
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			return nil, ctx.Err()
		}
	}
	s.active.Add(1)
	if s.compileHook != nil {
		s.compileHook()
	}
	return func() {
		s.active.Add(-1)
		<-s.slots
	}, nil
}

// ensureRegions places the request's snapshot into the engine. A region
// whose address range is already mapped with identical bytes is reused
// (content-addressed upload dedup — the precondition for request
// coalescing); different bytes at the same address are a conflict. A region
// whose Data is the mapped view itself (materializeRegions found its chunks
// already placed) needs no comparison. A region assembled from chunks has
// its hash list recorded once its bytes are verified or mapped.
func (s *Service) ensureRegions(regions []Region) error {
	s.regionMu.Lock()
	defer s.regionMu.Unlock()
	for _, rg := range regions {
		if existing, err := s.eng.Mem.Bytes(rg.Addr, len(rg.Data)); err == nil {
			if &existing[0] != &rg.Data[0] && !bytes.Equal(existing, rg.Data) {
				return fmt.Errorf("region at %#x (%d bytes) conflicts with already-uploaded contents", rg.Addr, len(rg.Data))
			}
		} else if _, err := s.eng.Mem.MapBytes(rg.Addr, rg.Data, "service.image"); err != nil {
			return fmt.Errorf("region at %#x (%d bytes) overlaps an existing mapping: %w", rg.Addr, len(rg.Data), err)
		}
		if rg.hashes != nil {
			s.placed[rg.Addr] = placedRegion{hashes: rg.hashes, size: len(rg.Data)}
		}
	}
	return nil
}

func validate(req *Request) error {
	if len(req.Regions) == 0 {
		return errors.New("request carries no regions")
	}
	entryMapped := false
	for i, rg := range req.Regions {
		if len(rg.Data) == 0 {
			return fmt.Errorf("regions[%d] at %#x is empty", i, rg.Addr)
		}
		if rg.Addr+uint64(len(rg.Data)) < rg.Addr {
			return fmt.Errorf("regions[%d] at %#x wraps the address space", i, rg.Addr)
		}
		if req.Entry >= rg.Addr && req.Entry < rg.Addr+uint64(len(rg.Data)) {
			entryMapped = true
		}
	}
	if !entryMapped {
		return fmt.Errorf("entry %#x lies outside every uploaded region", req.Entry)
	}
	for i, p := range req.FixedParams {
		if p.Idx < 0 || p.Idx >= len(req.Sig.Params) {
			return fmt.Errorf("fixed_params[%d]: index %d outside signature (%d params)", i, p.Idx, len(req.Sig.Params))
		}
		if p.Ptr && p.Size <= 0 {
			return fmt.Errorf("fixed_params[%d]: pointer fix needs a positive size", i)
		}
	}
	for i, m := range req.FixedRanges {
		if m.End <= m.Start {
			return fmt.Errorf("fixed_ranges[%d]: end %#x not past start %#x", i, m.End, m.Start)
		}
	}
	return nil
}

// statusForError maps pipeline failures to distinct HTTP statuses:
// rewrite → 422 (the uploaded code cannot be specialized), lift → 424 (the
// DBrew output resists lifting), optimize → 500 (pipeline invariant
// violation), jit → 502 (backend code generation failed), deadline → 504.
func statusForError(err error) (status int, stage string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, ""
	case errors.Is(err, dbrewllvm.ErrStageRewrite):
		return http.StatusUnprocessableEntity, "rewrite"
	case errors.Is(err, dbrewllvm.ErrStageLift):
		return http.StatusFailedDependency, "lift"
	case errors.Is(err, dbrewllvm.ErrStageOptimize):
		return http.StatusInternalServerError, "optimize"
	case errors.Is(err, dbrewllvm.ErrStageJIT):
		return http.StatusBadGateway, "jit"
	}
	return http.StatusInternalServerError, ""
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, stage, msg string) {
	writeJSON(w, status, ErrorBody{Error: msg, Stage: stage})
}
