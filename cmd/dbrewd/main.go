// Command dbrewd serves specialization-as-a-service: POST /specialize
// accepts an address-space snapshot (raw x86-64 code plus fixed data),
// a signature, and a specialization configuration, and returns the
// optimized machine code with compile statistics. GET /healthz and
// GET /metrics expose liveness and the daemon's counters.
//
// Usage:
//
//	dbrewd                             # serve on 127.0.0.1:7411
//	dbrewd -addr :8080 -workers 8      # bigger pool, all interfaces
//	dbrewd -cachedir /var/cache/dbrewd # persistent artifacts: warm restarts
//	dbrewd -peers h2:7411,h3:7411      # fleet mode: share artifacts by key owner
//	dbrewd -smoke                      # self-test against an ephemeral server
//
// The daemon never runs more than -workers compilations at once; beyond
// that, up to -queue requests wait for a slot and the rest are rejected
// with 429. Identical in-flight requests are coalesced into a single
// compilation. SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address")
	workers := flag.Int("workers", 4, "maximum concurrent compilations")
	queue := flag.Int("queue", 64, "admission queue depth beyond the worker slots")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	cacheCap := flag.Int("cache", 1024, "specialization cache capacity (entries)")
	cacheDir := flag.String("cachedir", "", "persistent artifact store directory (empty disables persistence); /healthz answers 503 \"warming\" until its index loads")
	cacheBytes := flag.Int64("cachebytes", 0, "disk artifact store byte budget (0 selects the diskcache default)")
	fastpath := flag.Duration("fastpath-deadline", 250*time.Millisecond, "compile with the DBrew backend alone when a request's remaining deadline budget is below this (0 disables)")
	self := flag.String("self", "", "this node's advertised host:port for fleet mode (defaults to -addr when -peers is set)")
	peers := flag.String("peers", "", "comma-separated host:port fleet peer list; enables peer artifact sharing")
	smoke := flag.Bool("smoke", false, "run the self-test against an ephemeral server and exit")
	flag.Parse()

	cfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		DefaultDeadline:  *deadline,
		CacheCapacity:    *cacheCap,
		CacheDir:         *cacheDir,
		CacheBytes:       *cacheBytes,
		FastpathDeadline: *fastpath,
	}
	if *peers != "" {
		cfg.Self = *self
		if cfg.Self == "" {
			cfg.Self = *addr
		}
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "dbrewd: smoke:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dbrewd:", err)
		os.Exit(1)
	}
}

func serve(addr string, cfg service.Config) error {
	svc := service.New(cfg)
	srv := &http.Server{Addr: addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("dbrewd: listening on %s (workers %d, queue %d)\n", addr, cfg.Workers, cfg.QueueDepth)
		if cfg.CacheDir != "" {
			fmt.Printf("dbrewd: warming artifact store at %s\n", cfg.CacheDir)
		}
		if len(cfg.Peers) > 0 {
			fmt.Printf("dbrewd: fleet mode as %s with peers %v\n", cfg.Self, cfg.Peers)
		}
		errc <- srv.ListenAndServe()
	}()

	if cfg.CacheDir != "" {
		go func() {
			<-svc.Ready()
			if err := svc.WarmError(); err != nil {
				fmt.Fprintln(os.Stderr, "dbrewd:", err)
			} else {
				fmt.Println("dbrewd: artifact store warm, /healthz ready")
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Println("dbrewd: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Stop accepting connections first, then wait out the compiles the
	// daemon already admitted.
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("dbrewd: drained, bye")
	return nil
}

func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// runSmoke exercises the full client-to-daemon path on an ephemeral
// listener: upload the paper's stencil workload, specialize the line
// kernel cold and warm, and print the resulting stats and metrics.
func runSmoke(cfg service.Config) error {
	svc := service.New(cfg)
	srv := &http.Server{Handler: svc}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer srv.Close()

	client := service.NewClient("http://" + ln.Addr().String())
	client.EnableDeltaSnapshots()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}

	w, err := bench.NewWorkload(65)
	if err != nil {
		return err
	}
	in := w.SpecInput(bench.Line, bench.Flat, bench.DBrewLLVM)
	req := &service.Request{
		Regions: service.SnapshotRegions(w.Mem),
		Entry:   in.Entry,
		Sig:     service.SigFromABI(in.Sig),
		FixedParams: []service.ParamFix{
			{Idx: 0, Value: in.StencilAddr, Ptr: true, Size: in.StencilSize},
		},
		IncludeIR: true,
	}

	cold, err := client.SpecializeTraced(ctx, req)
	if err != nil {
		return fmt.Errorf("cold specialize: %w", err)
	}
	warm, err := client.Specialize(ctx, req)
	if err != nil {
		return fmt.Errorf("warm specialize: %w", err)
	}
	switch {
	case cold.CacheHit:
		return errors.New("cold request reported a cache hit")
	case !warm.CacheHit:
		return errors.New("warm request missed the cache")
	case len(warm.Code) != len(cold.Code):
		return errors.New("warm code differs from cold code")
	case len(cold.Trace) == 0:
		return errors.New("?trace=1 request carried no trace")
	}

	// Deadline pressure: a budget below -fastpath-deadline must flip the
	// server to the DBrew backend, compiled fresh (the backend is part of
	// the cache key, so the warm full artifact must not be served).
	var fast *service.Response
	if cfg.FastpathDeadline > 0 {
		fastReq := *req
		fastReq.DeadlineMS = cfg.FastpathDeadline.Milliseconds() * 4 / 5
		fast, err = client.Specialize(ctx, &fastReq)
		if err != nil {
			return fmt.Errorf("fastpath specialize: %w", err)
		}
		switch {
		case fast.Strategy != "fastpath":
			return fmt.Errorf("tight-deadline strategy = %q, want fastpath", fast.Strategy)
		case fast.CacheHit:
			return errors.New("fastpath request hit the full-strategy cache entry")
		case len(fast.Code) == 0:
			return errors.New("fastpath request returned no code")
		}
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	prom, err := http.Get(client.BaseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("prometheus metrics: %w", err)
	}
	promBody, err := io.ReadAll(prom.Body)
	prom.Body.Close()
	if err != nil {
		return fmt.Errorf("prometheus metrics: %w", err)
	}
	if err := trace.Lint(promBody); err != nil {
		return fmt.Errorf("prometheus /metrics output fails lint: %w", err)
	}
	fmt.Printf("smoke: specialized flat line kernel via %s\n", client.BaseURL)
	fmt.Printf("  cold: %5d us, %d bytes at %#x (decoded %d, emitted %d, eliminated %d)\n",
		cold.ElapsedUS, len(cold.Code), cold.Addr,
		cold.Stats.Decoded, cold.Stats.Emitted, cold.Stats.Eliminated)
	fmt.Printf("  warm: %5d us, cache hit\n", warm.ElapsedUS)
	if fast != nil {
		fmt.Printf("  fastpath: %5d us, %d bytes of DBrew code under a %dms budget (strategy %q, %d served)\n",
			fast.ElapsedUS, len(fast.Code), cfg.FastpathDeadline.Milliseconds()*4/5,
			fast.Strategy, m.FastpathServed)
	}
	fmt.Printf("  metrics: %d requests, %d ok, %d cache hits; engine cache %d miss / %d hit\n",
		m.Requests, m.OK, m.CacheHits, m.Engine.Cache.Misses, m.Engine.Cache.Hits)
	fmt.Printf("  delta: %d chunked uploads, %d region bytes reconstructed server-side\n",
		m.DeltaRequests, m.DeltaBytesSaved)
	fmt.Printf("  IR: %d bytes lifted back from the returned code\n", len(cold.IR))
	fmt.Printf("  trace: %d bytes of per-request spans; /metrics lints as Prometheus text (%d bytes)\n",
		len(cold.Trace), len(promBody))
	return nil
}
