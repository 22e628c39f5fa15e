package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro"
	"repro/internal/codegen"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/hostmodel"
	"repro/internal/sim"
)

const (
	// simDesign is the largest built-in design (28.7k IR nodes).
	simDesign  = "MegaBOOM-4C"
	simThreads = 2
	// longChunk is how many cycles sim-long runs per timed Run call, and
	// stepChunk how many single-cycle steps sim-step times per sample
	// round; both keep one sample near 50 ms on the slowest engine.
	longChunk = 1000
	stepChunk = 200
	warmup    = 200
	simOutput = "io_out"
)

// simWorkload runs MegaBOOM-4C on three engines in lockstep: linked at 2
// threads (the reported throughput), linked at 1 thread, and the native
// kernel at 2 threads. sim-long lets each run free for longChunk cycles
// per call; sim-step drives it as a testbench, Run(1) then PeekOutput
// every cycle, so fixed per-call cost dominates.
type simWorkload struct {
	step bool

	p1, p2 *sim.Program
	kernel *codegen.Kernel
	store  *codegen.Store
}

// simEngine is one timed configuration.
type simEngine struct {
	name  string // metric name of its kHz figure
	label string
	e     *sim.Engine
	rates []Sample // cycles per second, one per timed chunk
}

func (w *simWorkload) Setup(r *Run) error {
	root := r.Tracer.Begin("setup", "bench.setup")
	defer root.End()
	cfg, err := designs.ParseName(simDesign)
	if err != nil {
		return err
	}
	text, _ := Around(root, "bench.generate", func() (string, error) { return designText(cfg), nil })
	circ, err := Around(root, "firrtl.parse", func() (*firrtl.Circuit, error) { return repcut.ParseCircuit(text) })
	if err != nil {
		return err
	}
	g, err := stagedElaborate(root, circ)
	if err != nil {
		return err
	}
	s1, err := stagedCompile(root, g, 1, r.Seed, false)
	if err != nil {
		return err
	}
	s2, err := stagedCompile(root, g, simThreads, r.Seed, false)
	if err != nil {
		return err
	}
	w.p1, w.p2 = s1.Program, s2.Program
	if w.store, err = codegen.Open(filepath.Join(r.WorkDir, "artifacts"), 0); err != nil {
		return err
	}
	w.kernel, err = Around(root, "codegen.kernel", func() (*codegen.Kernel, error) {
		return w.store.Kernel(w.p2, codegen.EmitOptions{})
	})
	if err != nil {
		return fmt.Errorf("native kernel: %w", err)
	}
	r.ColdKernel = w.kernel.Built
	return nil
}

func (w *simWorkload) Close() {
	if w.store != nil {
		w.store.Close()
	}
}

func (w *simWorkload) Measure(r *Run) error {
	native := sim.NewEngine(w.p2)
	if err := native.InstallNative(w.kernel.Threads); err != nil {
		return err
	}
	engines := []*simEngine{
		{name: "sim_khz", label: "linked, 2 threads", e: sim.NewEngine(w.p2)},
		{name: "sim_khz.t1", label: "linked, 1 thread", e: sim.NewEngine(w.p1)},
		{name: "sim_khz.native", label: "native kernel, 2 threads", e: native},
	}
	// In traced runs a fourth linked 2-thread engine runs RunProfiled for
	// the phase split, and the 2-thread engine alternates rounds with and
	// without spans for trace.overhead.
	var probe *sim.Engine
	if r.Tracer != nil {
		probe = sim.NewEngine(w.p2)
		probe.Run(warmup)
	}
	for _, se := range engines {
		se.e.Run(warmup)
	}
	cycles := longChunk
	if w.step {
		cycles = stepChunk
	}
	var (
		latency       []Sample // ms per timed unit on the 2-thread engine
		prof          profileStats
		traced, plain []Sample // 2-thread rates of rounds with and without spans
		round         int
	)
	start := time.Now()
	for deadline := start.Add(r.Seconds); round == 0 || time.Now().Before(deadline); round++ {
		spans := r.Tracer != nil && round%2 == 0
		var outs [][]uint64
		for i, se := range engines {
			var root *Open
			if i == 0 && spans {
				root = r.Tracer.Begin(fmt.Sprintf("round%d", round), "bench.round")
			}
			s0 := stealTicks()
			var out []uint64
			var lat []float64
			var d time.Duration
			if w.step {
				out, lat, d = stepEngine(r, se.e, root)
			} else {
				d = runEngine(se.e, root)
				out = []uint64{peek(r, se.e)}
				lat = []float64{ms(d)}
			}
			stolen := stealTicks() - s0
			root.End()
			rate := Sample{Rate(float64(cycles), d), stolen}
			se.rates = append(se.rates, rate)
			outs = append(outs, out)
			if i == 0 {
				for _, l := range lat {
					latency = append(latency, Sample{l, stolen})
				}
				if spans {
					traced = append(traced, rate)
				} else {
					plain = append(plain, rate)
				}
			}
		}
		r.Check(slices.Equal(outs[0], outs[1]) && slices.Equal(outs[0], outs[2]),
			"round %d: %s differs between engines", round, simOutput)
		if probe != nil {
			prof.add(probe.RunProfiled(cycles))
		}
	}
	r.Ops(round*len(engines), 0, nil)
	w.checkHashes(r, engines, probe)

	khz := map[string]float64{}
	for _, se := range engines {
		ss := make([]Sample, len(se.rates))
		for i, s := range se.rates {
			ss[i] = Sample{s.V / 1e3, s.Steal}
		}
		s := r.SummarizeCalm(se.name, ss)
		khz[se.name] = s.Median
		r.Named(se.name, "kHz", s.Median, &s, se.label)
	}
	lat := r.SummarizeCalm("latency_ms", latency)
	r.E2E("throughput", khz["sim_khz"]*1e3)
	r.E2E("latency_ms", lat.Median)
	if w.step {
		r.Named("cycle_ms.p50", "ms", lat.Median, &lat, "Run(1) + PeekOutput, 2 threads")
		if lat.TailPct > 0 {
			r.Named(fmt.Sprintf("cycle_ms.p%g", round1(lat.TailPct)), "ms", lat.Tail, nil, "tail")
		}
	}
	if r.Tracer == nil {
		return nil
	}

	e2 := engines[0].e
	r.Layer("sim.instrs_per_cycle", Ratio(float64(e2.InstrsRetired()), float64(e2.Cycles())))
	ls := w.p2.Linked().Stats
	r.Layer("sim.fusion_rate", ls.FusionRate())
	r.Layer("sim.speedup", Ratio(khz["sim_khz"], khz["sim_khz.t1"]))
	r.Layer("codegen.native_speedup", Ratio(khz["sim_khz.native"], khz["sim_khz"]))
	prof.report(r)
	r.Layer("trace.overhead", 1-Ratio(Summarize(Calm(traced)).Median, Summarize(Calm(plain)).Median))
	if w.step {
		spans := r.Tracer.Spans()
		run1 := durSummary(Durations(spans, "sim.run1", nil)).Median / 1e3
		r.Layer("sim.run1_us", run1)
		r.Layer("sim.peek_us", durSummary(Durations(spans, "sim.peek", nil)).Median/1e3)
		r.Layer("sim.call_overhead_us", run1-prof.cycleUs())
	}
	sp := r.Tracer.Begin("model", "hostmodel.evaluate")
	ev := hostmodel.Evaluate(hostmodel.ScaledXeon8260(), hostmodel.WorkFromProgram(w.p2), hostmodel.SameSocket)
	sp.End()
	r.Layer("hostmodel.modeled_khz", ev.KHz)
	r.Named("hostmodel.modeled_khz", "kHz", ev.KHz, nil, "MODELED by internal/hostmodel, unvalidated; measured sim_khz above")
	r.Layer("codegen.build_s", w.coldBuild(r))
	setupLayers(r, 1)
	return nil
}

// runEngine times one free-running chunk.
func runEngine(e *sim.Engine, root *Open) time.Duration {
	sp := root.Child("sim.run")
	t0 := time.Now()
	e.Run(longChunk)
	d := time.Since(t0)
	sp.End()
	return d
}

// stepEngine drives stepChunk testbench cycles (Run(1) then PeekOutput)
// and returns the outputs seen, each cycle's latency in ms and the elapsed
// time. A non-nil root puts a span around every call.
func stepEngine(r *Run, e *sim.Engine, root *Open) ([]uint64, []float64, time.Duration) {
	out := make([]uint64, 0, stepChunk)
	lat := make([]float64, 0, stepChunk)
	t0 := time.Now()
	for c := 0; c < stepChunk; c++ {
		t := time.Now()
		sp := root.Child("sim.run1")
		e.Run(1)
		sp.End()
		sp = root.Child("sim.peek")
		v, err := e.PeekOutput(simOutput)
		sp.End()
		lat = append(lat, ms(time.Since(t)))
		if err != nil {
			r.Op(err)
		}
		out = append(out, v)
	}
	return out, lat, time.Since(t0)
}

func peek(r *Run, e *sim.Engine) uint64 {
	v, err := e.PeekOutput(simOutput)
	if err != nil {
		r.Op(err)
	}
	return v
}

// checkHashes brings every engine to the same cycle count (outside timing)
// and checks that their architectural state hashes agree.
func (w *simWorkload) checkHashes(r *Run, engines []*simEngine, probe *sim.Engine) {
	all := []*sim.Engine{}
	for _, se := range engines {
		all = append(all, se.e)
	}
	if probe != nil {
		all = append(all, probe)
	}
	var top uint64
	for _, e := range all {
		top = max(top, e.Cycles())
	}
	for _, e := range all {
		e.Run(int(top - e.Cycles()))
	}
	h := all[0].StateHash()
	for i, e := range all[1:] {
		r.Check(e.StateHash() == h, "state hash of engine %d differs from linked 2-thread after %d cycles", i+1, top)
	}
}

// coldBuild builds the 2-thread kernel into an empty artifact store (not
// loading it) and returns the build's wall time in seconds, as the store
// measured it.
func (w *simWorkload) coldBuild(r *Run) float64 {
	dir, err := os.MkdirTemp(r.WorkDir, "cold-store-")
	if !r.Op(err) {
		return 0
	}
	defer os.RemoveAll(dir)
	st, err := codegen.Open(dir, 0)
	if !r.Op(err) {
		return 0
	}
	defer st.Close()
	// No span: the cold build is not part of the workload, and would
	// swamp every other layer's self-time share.
	info, err := st.Ensure(w.p2, codegen.EmitOptions{})
	if !r.Op(err) {
		return 0
	}
	return info.BuildTime.Seconds()
}

// profileStats accumulates Engine.RunProfiled samples, one row per cycle.
type profileStats struct {
	eval, evalWait, commit, commitWait, imbalance, cycle []float64
}

func (p *profileStats) add(rows [][]sim.PhaseSample) {
	for _, row := range rows {
		var evMax, evSum, wait, com, cwait float64
		for _, s := range row {
			ev := us(s.Eval)
			evMax = max(evMax, ev)
			evSum += ev
			wait += us(s.EvalBarrier)
			com = max(com, us(s.Update))
			cwait += us(s.UpdateBarrier)
		}
		n := float64(len(row))
		p.eval = append(p.eval, evMax)
		p.evalWait = append(p.evalWait, wait/n)
		p.commit = append(p.commit, com)
		p.commitWait = append(p.commitWait, cwait/n)
		p.imbalance = append(p.imbalance, Ratio(evMax, evSum/n))
		t0 := row[0]
		p.cycle = append(p.cycle, us(t0.Eval+t0.EvalBarrier+t0.Update+t0.UpdateBarrier))
	}
}

// cycleUs is the median profiled wall time of one cycle.
func (p *profileStats) cycleUs() float64 { return Summarize(p.cycle).Median }

// report sets the runtime phase metrics: per cycle, the slowest thread's
// eval and commit, the mean barrier waits, and max/mean eval; medians over
// cycles.
func (p *profileStats) report(r *Run) {
	r.Layer("sim.eval_us", Summarize(p.eval).Median)
	r.Layer("sim.eval_wait_us", Summarize(p.evalWait).Median)
	r.Layer("sim.commit_us", Summarize(p.commit).Median)
	r.Layer("sim.commit_wait_us", Summarize(p.commitWait).Median)
	r.Layer("sim.imbalance", Summarize(p.imbalance).Median)
}

// setupLayers reports the set-up's compile-stage spans, summed per round
// of rounds (1 for the sim workloads' single set-up).
func setupLayers(r *Run, rounds int) {
	spans := r.Tracer.Spans()
	setup := func(g string) bool { return g == "setup" }
	for _, m := range []struct{ metric, span string }{
		{"firrtl.parse_ms", "firrtl.parse"}, {"firrtl.flatten_ms", "firrtl.flatten"},
		{"firrtl.lower_ms", "firrtl.lower"}, {"cgraph.build_ms", "cgraph.build"},
		{"core.partition_ms", "core.partition"}, {"sim.compile_ms", "sim.compile"},
		{"sim.link_ms", "sim.link"}, {"codegen.kernel_ms", "codegen.kernel"},
	} {
		r.Layer(m.metric, sumMs(Durations(spans, m.span, setup))/float64(rounds))
	}
}

func sumMs(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t)
}

// durSummary summarizes durations in nanoseconds.
func durSummary(ds []time.Duration) Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return Summarize(xs)
}

func round1(x float64) float64 { return float64(int(x*10)) / 10 }
