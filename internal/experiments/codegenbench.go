package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/codegen"
	"repro/internal/designs"
	"repro/internal/report"
	"repro/internal/sim"
)

// This file measures the native codegen backend (internal/codegen) on the
// real host: actual wall-clock cycles/sec of the linked interpreter versus
// the same program compiled to a plugin kernel, per design and thread
// count, plus each kernel's out-of-process build latency. These are honest
// end-to-end numbers on whatever machine runs them; platforms without
// plugin support report no points.

// measureCPS times one engine for the given cycle count, after a short
// warm-up so one-time lazy setup is off the clock.
func measureCPS(e *sim.Engine, cycles int) float64 {
	e.Run(cycles / 10)
	start := time.Now()
	e.Run(cycles)
	return float64(cycles) / time.Since(start).Seconds()
}

// CodegenPoint is one design × thread-count measurement of both backends.
type CodegenPoint struct {
	Design    string  `json:"design"`
	Threads   int     `json:"workers"` // engine threads driving the measurement
	LinkedCPS float64 `json:"linked_cycles_per_sec"`
	NativeCPS float64 `json:"native_cycles_per_sec"`
	Speedup   float64 `json:"speedup"`
	BuildMs   float64 `json:"build_ms"` // 0 on a warm artifact-store hit
}

// CodegenSweep measures linked-vs-native throughput for every suite design
// at each thread count in ks. Kernels are built through the store (so a
// warm artifact store skips the build and BuildMs reports 0); both engines
// run the identical compiled program and their state hashes are asserted
// equal after the measurement, so a silently miscompiled kernel fails the
// sweep instead of producing a fast wrong number.
func (s *Suite) CodegenSweep(store *codegen.Store, ks []int, cycles int) ([]CodegenPoint, error) {
	if err := codegen.Supported(); err != nil {
		return nil, err
	}
	var out []CodegenPoint
	for _, cfg := range s.Designs {
		for _, k := range ks {
			p, err := s.codegenPoint(store, cfg, k, cycles)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

func (s *Suite) codegenPoint(store *codegen.Store, cfg designs.Config, k, cycles int) (CodegenPoint, error) {
	var p *sim.Program
	if k <= 1 {
		p = s.SerialProgram(cfg, 2)
	} else {
		p = s.Program(cfg, k, false, 2)
	}
	kern, err := store.Kernel(p, codegen.EmitOptions{})
	if err != nil {
		return CodegenPoint{}, fmt.Errorf("%s k=%d: %w", cfg.Name(), k, err)
	}
	linkedE := sim.NewEngine(p)
	nativeE := sim.NewEngine(p)
	if err := nativeE.InstallNative(kern.Threads); err != nil {
		return CodegenPoint{}, fmt.Errorf("%s k=%d: install: %w", cfg.Name(), k, err)
	}
	linked := measureCPS(linkedE, cycles)
	native := measureCPS(nativeE, cycles)
	if lh, nh := linkedE.StateHash(), nativeE.StateHash(); lh != nh {
		return CodegenPoint{}, fmt.Errorf("%s k=%d: state hash diverged after %d cycles: linked %#x native %#x",
			cfg.Name(), k, cycles, lh, nh)
	}
	pt := CodegenPoint{
		Design: cfg.Name(), Threads: k,
		LinkedCPS: linked, NativeCPS: native,
		Speedup: native / linked,
	}
	if kern.Built {
		pt.BuildMs = float64(kern.BuildTime) / float64(time.Millisecond)
	}
	return pt, nil
}

// CodegenTable renders the measurements for codegen.{txt,csv}.
func CodegenTable(points []CodegenPoint) *report.Table {
	t := report.NewTable("Native codegen: real cycles/sec, linked interpreter vs compiled plugin kernel",
		"Design", "Threads", "Linked c/s", "Native c/s", "Speedup", "Build ms")
	for _, p := range points {
		build := "warm"
		if p.BuildMs > 0 {
			build = report.F1(p.BuildMs)
		}
		t.Row(p.Design, p.Threads,
			report.F1(p.LinkedCPS), report.F1(p.NativeCPS),
			report.F2(p.Speedup)+"x", build)
	}
	return t
}

// CodegenJSON renders the measurements as the machine-readable
// BENCH_codegen.json: one record per design × backend × thread count.
func CodegenJSON(points []CodegenPoint) ([]byte, error) {
	type rec struct {
		Design       string  `json:"design"`
		Workers      int     `json:"workers"`
		Engine       string  `json:"engine"`
		CyclesPerSec float64 `json:"cycles_per_sec"`
		Speedup      float64 `json:"speedup,omitempty"`
		BuildMs      float64 `json:"build_ms,omitempty"`
	}
	var recs []rec
	for _, p := range points {
		recs = append(recs,
			rec{p.Design, p.Threads, "linked", p.LinkedCPS, 0, 0},
			rec{p.Design, p.Threads, "native", p.NativeCPS, p.Speedup, p.BuildMs})
	}
	return json.MarshalIndent(recs, "", "  ")
}
