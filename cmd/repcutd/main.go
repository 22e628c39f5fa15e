// Command repcutd serves RepCut simulations over HTTP: a content-addressed
// compile cache (one partition+compile per unique design+options, shared
// by every client), stateful simulation sessions, and an observability
// surface. The same binary doubles as the load generator.
//
// Serve:
//
//	repcutd -addr 127.0.0.1:8372
//
// Generate load against a running server (writes the throughput table):
//
//	repcutd -loadgen -addr http://127.0.0.1:8372 -duration 2s \
//	        -designs RocketChip-1C,SmallBOOM-1C,MegaBOOM-1C -out results/service_throughput.txt
//
// With -loadgen and no -addr, repcutd boots an in-process server first
// (self-hosted benchmark mode).
//
// Serve as one member of a static fleet (compile requests route by
// consistent hash, cache misses fetch artifacts from the owning peer, and
// SIGTERM drains every session to a peer before the listener stops):
//
//	repcutd -addr 10.0.0.1:8372 -self 10.0.0.1:8372 \
//	        -peers 10.0.0.1:8372,10.0.0.2:8372,10.0.0.3:8372
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8372", "listen address (serve mode) or server base URL (loadgen mode; empty = self-host)")
		cacheBytes = flag.Int64("cache-bytes", 256<<20, "compile cache resident-byte budget")
		maxSess    = flag.Int("max-sessions", 1024, "live session admission limit (429 beyond)")
		maxComp    = flag.Int("max-compiles", 0, "concurrent compile admission limit (503 beyond; 0 = NumCPU)")
		idle       = flag.Duration("idle-timeout", 2*time.Minute, "reap sessions idle longer than this")
		workers    = flag.Int("workers", 0, "per-compile worker bound (0 = all cores)")
		batchLanes = flag.Int("batch-lanes", 16, "lane width of the batched execution tier, max 16 (1 disables batching)")
		cgOn       = flag.Bool("codegen", false, "enable the native build-behind tier: compile-cache misses build plugin kernels asynchronously and sessions hot-swap onto them")
		cgDir      = flag.String("codegen-dir", "", "native artifact store directory (empty = per-user default under the temp dir)")
		cgBytes    = flag.Int64("codegen-bytes", 0, "native artifact store disk byte budget (0 = 1 GiB)")
		peersF     = flag.String("peers", "", "comma-separated host:port list of every fleet member (including this node); enables cluster mode")
		selfF      = flag.String("self", "", "this node's advertised host:port in the peer list (default: the -addr value)")
		fetchTO    = flag.Duration("fetch-timeout", 5*time.Second, "cluster: peer artifact fetch budget before shedding with 503")
		portFile   = flag.String("portfile", "", "write the bound host:port to this file once listening")
		logJSON    = flag.Bool("log-json", false, "emit request logs as JSON instead of text")
		quiet      = flag.Bool("quiet", false, "suppress per-request logs")

		loadgen  = flag.Bool("loadgen", false, "run the load generator instead of serving")
		duration = flag.Duration("duration", 2*time.Second, "loadgen: how long to generate load")
		clients  = flag.Int("clients", 8, "loadgen: concurrent client workers")
		designsF = flag.String("designs", "RocketChip-1C,SmallBOOM-1C,MegaBOOM-1C", "loadgen: comma-separated built-in designs")
		scale    = flag.Float64("scale", 0.5, "loadgen: design size scale")
		threads  = flag.Int("threads", 2, "loadgen: partition/thread count per design")
		cyclesPS = flag.Int("cycles-per-session", 200, "loadgen: simulated cycles per session")
		outFile  = flag.String("out", "", "loadgen: write the throughput table to this file")
		minHit   = flag.Float64("min-hit-rate", 0, "loadgen: exit non-zero unless the cache hit rate reaches this (CI gate)")
		hot      = flag.Bool("hot", false, "loadgen: hot-design scenario — every client hammers one design; self-hosts twice (batching on, then off) and reports both")
		minOcc   = flag.Float64("min-occupancy", 0, "loadgen: exit non-zero unless batch lane occupancy reaches this ratio (CI gate)")
	)
	flag.Parse()

	logger := newLogger(*logJSON, *quiet)
	if *loadgen {
		lgAddr := *addr
		if *hot && !flagWasSet("addr") {
			lgAddr = "" // hot mode self-hosts unless an addr was given explicitly
		}
		err := runLoadgen(logger, lgOpts{
			addr: lgAddr, duration: *duration, clients: *clients,
			designList: *designsF, scale: *scale, threads: *threads,
			cyclesPS: *cyclesPS, outFile: *outFile, minHit: *minHit,
			workers: *workers, batchLanes: *batchLanes,
			hot: *hot, minOcc: *minOcc,
			codegen: *cgOn, codegenDir: *cgDir,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	cfg := service.Config{
		CacheBytes:   *cacheBytes,
		MaxSessions:  *maxSess,
		MaxCompiles:  *maxComp,
		IdleTimeout:  *idle,
		Workers:      *workers,
		BatchLanes:   *batchLanes,
		Codegen:      *cgOn,
		CodegenDir:   *cgDir,
		CodegenBytes: *cgBytes,
		Logger:       logger,
	}
	if *peersF != "" {
		if err := serveCluster(cfg, *addr, *selfF, *peersF, *fetchTO, *portFile, logger); err != nil {
			fatal(err)
		}
		return
	}
	if err := serve(cfg, *addr, *portFile, logger); err != nil {
		fatal(err)
	}
}

// flagWasSet reports whether the named flag appeared on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// newLogger builds the structured logger for request logs.
func newLogger(jsonFmt, quiet bool) *slog.Logger {
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: level}
	if jsonFmt {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// serve runs the daemon until SIGINT/SIGTERM, then shuts down gracefully:
// stop accepting, drain in-flight steps, close sessions.
func serve(cfg service.Config, addr, portFile string, logger *slog.Logger) error {
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	bound := ln.Addr().String()
	fmt.Printf("repcutd listening on http://%s\n", bound)
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "reason", "signal")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}

// serveCluster runs one fleet member until SIGINT/SIGTERM. Shutdown order
// matters: sessions are drained to peers while the listener is still up —
// a migration target with a cold cache fetches the artifact back from this
// node — and only then does the HTTP server stop.
func serveCluster(cfg service.Config, addr, self, peers string, fetchTO time.Duration, portFile string, logger *slog.Logger) error {
	var peerList []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if self == "" {
		self = addr
	}
	node, err := cluster.New(cluster.Config{
		Service:      cfg,
		Self:         self,
		Peers:        peerList,
		FetchTimeout: fetchTO,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: node.Handler()}

	bound := ln.Addr().String()
	fmt.Printf("repcutd (cluster node %s, %d peers) listening on http://%s\n",
		self, len(node.Ring().Peers()), bound)
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "reason", "signal")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	moved, err := node.DrainMigrate(drainCtx)
	if err != nil {
		logger.Warn("drain incomplete", "migrated", moved, "err", err)
	} else {
		logger.Info("drained", "migrated", moved)
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := node.Server().Shutdown(shutdownCtx); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}

// lgOpts carries the loadgen flag set.
type lgOpts struct {
	addr       string
	duration   time.Duration
	clients    int
	designList string
	scale      float64
	threads    int
	cyclesPS   int
	outFile    string
	minHit     float64
	minOcc     float64
	workers    int
	batchLanes int
	hot        bool
	codegen    bool
	codegenDir string
}

// runLoadgen drives the configured workload, prints (and optionally
// writes) the throughput tables, and enforces the CI gates. The hot
// scenario self-hosts twice — batching on, then off — so the written
// report quantifies what lane batching buys on a coalescing-friendly
// workload.
func runLoadgen(logger *slog.Logger, o lgOpts) error {
	var designReqs []service.CompileRequest
	for _, name := range strings.Split(o.designList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		designReqs = append(designReqs, service.CompileRequest{
			Design: name, Scale: o.scale, Threads: o.threads,
		})
	}
	cfg := service.LoadgenConfig{
		Designs:          designReqs,
		Clients:          o.clients,
		Duration:         o.duration,
		CyclesPerSession: o.cyclesPS,
	}

	if o.hot {
		return runHotLoadgen(logger, o, cfg)
	}

	base := o.addr
	if base == "" {
		srv, ts := selfHost(o)
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		base = ts.URL
		fmt.Printf("self-hosted repcutd at %s\n", base)
	} else if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	res, err := service.RunLoadgen(base, cfg)
	if err != nil {
		return err
	}
	out := res.Table().String() + "\n" + res.Summary()
	fmt.Print(out)
	if err := writeOut(o.outFile, out); err != nil {
		return err
	}
	return checkGates(logger, o, res)
}

// runHotLoadgen is the hot-design scenario: one design, every client on
// it, run back to back with the batched tier enabled and disabled.
func runHotLoadgen(logger *slog.Logger, o lgOpts, cfg service.LoadgenConfig) error {
	if o.addr != "" {
		return fmt.Errorf("loadgen: -hot self-hosts to control batching; drop -addr")
	}
	if len(cfg.Designs) == 0 {
		return fmt.Errorf("loadgen: -hot needs a design")
	}
	cfg.Designs = cfg.Designs[:1] // one hot design, maximal coalescing

	run := func(lanes int) (*service.LoadgenResult, error) {
		ol := o
		ol.batchLanes = lanes
		srv, ts := selfHost(ol)
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		return service.RunLoadgen(ts.URL, cfg)
	}

	on, err := run(o.batchLanes)
	if err != nil {
		return err
	}
	off, err := run(1)
	if err != nil {
		return err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "=== hot design, batching on (%d lanes) ===\n%s\n%s\n",
		o.batchLanes, on.Table().String(), on.Summary())
	fmt.Fprintf(&sb, "=== hot design, batching off ===\n%s\n%s\n",
		off.Table().String(), off.Summary())
	if offCPS := off.CyclesPerSec(); offCPS > 0 {
		fmt.Fprintf(&sb, "batching speedup (aggregate cycles/s, hot design): %.2fx\n",
			on.CyclesPerSec()/offCPS)
	}
	out := sb.String()
	fmt.Print(out)
	if err := writeOut(o.outFile, out); err != nil {
		return err
	}
	return checkGates(logger, o, on)
}

// selfHost boots an in-process server for benchmark mode.
func selfHost(o lgOpts) (*service.Server, *httptest.Server) {
	srv := service.New(service.Config{
		Workers: o.workers, BatchLanes: o.batchLanes,
		Codegen: o.codegen, CodegenDir: o.codegenDir,
		Logger: newLogger(false, true),
	})
	return srv, httptest.NewServer(srv.Handler())
}

// writeOut writes a report file, creating its directory.
func writeOut(path, out string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// checkGates enforces the CI gates against one run's result.
func checkGates(logger *slog.Logger, o lgOpts, res *service.LoadgenResult) error {
	if res.Errors > 0 {
		return fmt.Errorf("loadgen: %d request errors", res.Errors)
	}
	if o.minHit > 0 {
		if res.Metrics == nil {
			return fmt.Errorf("loadgen: no /metrics snapshot to check hit rate against")
		}
		if res.Metrics.Cache.HitRate < o.minHit {
			return fmt.Errorf("loadgen: cache hit rate %.3f below required %.3f",
				res.Metrics.Cache.HitRate, o.minHit)
		}
		logger.Info("hit-rate gate passed", "hit_rate", res.Metrics.Cache.HitRate, "min", o.minHit)
	}
	if o.minOcc > 0 {
		if res.Metrics == nil {
			return fmt.Errorf("loadgen: no /metrics snapshot to check occupancy against")
		}
		occ := res.Metrics.Batch.OccupancyRatio
		if occ < o.minOcc {
			return fmt.Errorf("loadgen: batch lane occupancy %.3f below required %.3f (%.2f lanes/run of %d)",
				occ, o.minOcc, res.Metrics.Batch.MeanLanesPerRun, res.Metrics.Batch.LaneWidth)
		}
		logger.Info("occupancy gate passed", "occupancy", occ, "min", o.minOcc)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repcutd:", err)
	os.Exit(1)
}
