// Command benchall regenerates every table and figure of the paper's
// evaluation (Table 1, Table 3, Figures 2, 6, 7, 8, 9, 10, 11, 12, 13, 14)
// using this reproduction's designs, partitioner, simulators, and the
// simulated reference host. Results are printed and, with -out, written as
// both aligned text and CSV for plotting.
//
// Usage:
//
//	benchall              # quick suite (4 designs)
//	benchall -full        # all 12 Table 1 designs, full thread sweep
//	benchall -out results # also write results/<experiment>.{txt,csv}
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster/clusterbench"
	"repro/internal/codegen"
	"repro/internal/designs"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/service"
)

func main() {
	var (
		full    = flag.Bool("full", false, "run all 12 designs and the full thread sweep")
		outDir  = flag.String("out", "", "directory to write .txt/.csv results into")
		check   = flag.Bool("check", true, "run a real-engine equivalence spot check first")
		doVerif = flag.Bool("verify", true, "statically verify every compiled program (race freedom, replication closure, schedule)")
		svcDur  = flag.Duration("service-duration", 2*time.Second, "length of the repcutd service throughput run (0 disables)")
		batchO  = flag.Bool("batch-only", false, "run only the lane-batching sweep and exit")
		cgO     = flag.Bool("codegen-only", false, "run only the native-codegen backend measurement and exit")
		repartO = flag.Bool("repart-only", false, "run only the repartitioning (refined+derep vs unrefined) measurement and exit")
		clusO   = flag.Bool("cluster-only", false, "run only the multi-node fleet measurement and exit")
		valO    = flag.Bool("validate", false, "run only the translation-validation overhead measurement and exit")
		workers = flag.Int("workers", 0, "worker count for partitioning+compilation (0 = all cores, 1 = serial; results are identical)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	s := experiments.NewQuick()
	if *full {
		s = experiments.New()
	}
	s.Workers = *workers

	write := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(t.String()), 0o644); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(t.CSV()), 0o644); err != nil {
			fatal(err)
		}
	}

	if *batchO {
		batchSweep(s, *outDir, write)
		return
	}
	if *cgO {
		codegenBench(s, *outDir, write)
		return
	}
	if *repartO {
		repartBench(s, *outDir, write)
		return
	}
	if *clusO {
		clusterBench(*outDir, write)
		return
	}
	if *valO {
		validateOverhead(s, write)
		return
	}

	if *check {
		step("real-engine equivalence spot check")
		cfg := designs.Config{Kind: designs.SmallBoom, Cores: 1, Scale: 1}
		if err := s.RealEquivalence(cfg, 4, 100); err != nil {
			fatal(err)
		}
		fmt.Printf("serial, RepCut(4 threads), and Verilator baseline agree over 100 cycles of %s\n", cfg.Name())
		fmt.Printf("real serial throughput on this host: %.1f KHz\n\n", s.RealThroughput(cfg, 2000))
	}

	if *doVerif {
		step("static soundness verification")
		tv, errs := s.VerifyAll()
		write("verify", tv)
		if errs > 0 {
			fatal(fmt.Errorf("static verification found %d error(s); results would not be trustworthy", errs))
		}
		fmt.Println("every compiled program proven race-free, partition-closed, and well-scheduled")
	}

	step("Table 1")
	write("table1", s.Table1())

	step("Figure 6 (replication cost)")
	_, t6 := s.Fig6Replication()
	write("fig6_replication", t6)

	step("Figures 7/8/9/13 (scalability sweep)")
	points := s.Scalability()
	experiments.SortPerf(points)
	write("fig7_speedup", s.Fig7Scalability(points))
	_, t8 := s.Fig8Peak(points)
	write("fig8_peak", t8)
	write("fig9_khz", s.Fig9Throughput(points))
	_, t13 := s.Fig13Efficiency(points)
	write("fig13_efficiency", t13)

	step("Figure 2 (thread profiles)")
	_, t2 := s.Fig2Profiles()
	write("fig2_profiles", t2)

	step("Figure 10 (compiler impact)")
	_, t10 := s.Fig10Compiler()
	write("fig10_compiler", t10)

	step("Figure 11 (socket placement)")
	_, t11 := s.Fig11Numa()
	write("fig11_numa", t11)

	step("Figure 12 (phase profiles)")
	_, t12 := s.Fig12PhaseProfile()
	write("fig12_phases", t12)

	step("Figure 14 (imbalance factor)")
	_, t14 := s.Fig14Imbalance()
	write("fig14_imbalance", t14)

	step("Table 3 (performance counters)")
	write("table3", s.Table3())

	batchSweep(s, *outDir, write)
	codegenBench(s, *outDir, write)
	repartBench(s, *outDir, write)

	if *svcDur > 0 {
		clusterBench(*outDir, write)
		step("repcutd service throughput")
		t, summary, err := serviceThroughput(*svcDur, *workers)
		if err != nil {
			fatal(err)
		}
		write("service_throughput", t)
		fmt.Println(summary)
		if *outDir != "" {
			path := filepath.Join(*outDir, "service_throughput.txt")
			body := t.String() + "\n" + summary + "\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

// batchSweep measures the lane-batched engine against N independent
// engines on this host and writes batch_sweep.{txt,csv} plus the
// machine-readable BENCH_batch.json (one record per design × arrangement
// × lane count).
func batchSweep(s *experiments.Suite, outDir string, write func(string, *report.Table)) {
	step("lane batching (real batch vs solo lane-cycles/sec)")
	points := s.BatchSweep([]int{1, 4, 16}, 1000)
	write("batch_sweep", experiments.BatchTable(points))
	data, err := experiments.BatchJSON(points)
	if err != nil {
		fatal(err)
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "BENCH_batch.json"), data, 0o644); err != nil {
			fatal(err)
		}
	}
}

// repartBench measures the replication-aware repartitioning pipeline
// (k-way refinement + dereplication) against the raw recursive-bisection
// partition and writes repart.{txt,csv} plus the machine-readable
// BENCH_repart.json. The sweep itself gates on replication-factor
// non-increase and state-hash agreement, so a regressed repartitioner
// fails the run instead of producing a quietly wrong table.
func repartBench(s *experiments.Suite, outDir string, write func(string, *report.Table)) {
	step("repartitioning (refined+derep vs unrefined, real cycles/sec)")
	points, err := s.RepartSweep([]int{8, 16, 24}, 1000)
	if err != nil {
		fatal(err)
	}
	write("repart", experiments.RepartTable(points))
	data, err := experiments.RepartJSON(points)
	if err != nil {
		fatal(err)
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "BENCH_repart.json"), data, 0o644); err != nil {
			fatal(err)
		}
	}
}

// codegenBench measures the native codegen backend against the linked
// interpreter on this host and writes codegen.{txt,csv} plus the
// machine-readable BENCH_codegen.json (one record per design × backend ×
// thread count). Platforms that cannot build or load plugins skip the
// measurement cleanly instead of failing the run.
func codegenBench(s *experiments.Suite, outDir string, write func(string, *report.Table)) {
	step("native codegen (real linked vs compiled-kernel cycles/sec)")
	store, err := codegen.Shared("")
	if err != nil {
		fmt.Printf("skipping native codegen: %v\n", err)
		return
	}
	points, err := s.CodegenSweep(store, []int{1, 2}, 2000)
	if err != nil {
		if codegen.Supported() != nil {
			fmt.Printf("skipping native codegen: %v\n", err)
			return
		}
		fatal(err)
	}
	write("codegen", experiments.CodegenTable(points))
	data, err := experiments.CodegenJSON(points)
	if err != nil {
		fatal(err)
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "BENCH_codegen.json"), data, 0o644); err != nil {
			fatal(err)
		}
	}
}

// clusterBench boots a 3-node in-process repcutd fleet, drives it through
// every node at once, and writes cluster.{txt,csv} plus the
// machine-readable BENCH_cluster.json. The measurement gates on its own
// invariants — compile-once routing, peer fetch hit rate, lossless drain
// migration — so a regressed cluster fails the run (the CI cluster-smoke
// job runs exactly this).
func clusterBench(outDir string, write func(string, *report.Table)) {
	step("multi-node fleet (compile routing, artifact fetch, drain migration)")
	res, err := clusterbench.ClusterBench(clusterbench.ClusterOptions{})
	if err != nil {
		fatal(err)
	}
	write("cluster", clusterbench.ClusterTable(res))
	data, err := clusterbench.ClusterJSON(res)
	if err != nil {
		fatal(err)
	}
	if outDir != "" {
		if err := os.WriteFile(filepath.Join(outDir, "BENCH_cluster.json"), data, 0o644); err != nil {
			fatal(err)
		}
	}
}

// validateOverhead measures the translation validator's cost relative to
// the compile it rides on and writes validate.{txt,csv}. Any divergence is
// fatal: the bundled designs must all validate clean.
func validateOverhead(s *experiments.Suite, write func(string, *report.Table)) {
	step("translation validation overhead (internal/verify/tvalid)")
	t, diverged := s.ValidateAll()
	write("validate", t)
	if diverged > 0 {
		fatal(fmt.Errorf("translation validation found %d divergence(s); the optimizer miscompiles", diverged))
	}
	fmt.Println("every optimized program proven equivalent to its O0 reference")
}

// serviceThroughput boots an in-process repcutd and drives it with the
// deterministic load generator, measuring end-to-end session and cycle
// rates through the HTTP wire (compile cache included).
func serviceThroughput(dur time.Duration, workers int) (*report.Table, string, error) {
	cfg := service.Config{
		Workers: workers,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Shutdown(shutCtx)

	res, err := service.RunLoadgen(hs.URL, service.LoadgenConfig{
		Designs: []service.CompileRequest{
			{Design: "RocketChip-1C", Scale: 0.5, Threads: 2},
			{Design: "SmallBOOM-1C", Scale: 0.5, Threads: 2},
			{Design: "MegaBOOM-1C", Scale: 0.5, Threads: 2},
		},
		Duration: dur,
	})
	if err != nil {
		return nil, "", err
	}
	if res.Errors > 0 {
		return nil, "", fmt.Errorf("service loadgen hit %d errors", res.Errors)
	}
	return res.Table(), strings.TrimRight(res.Summary(), "\n"), nil
}

var t0 = time.Now()

func step(name string) {
	fmt.Printf("--- [%6.1fs] %s ---\n", time.Since(t0).Seconds(), name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchall:", err)
	os.Exit(1)
}
