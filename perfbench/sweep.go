package main

import (
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/cgraph"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/sim"
)

// sweepDesigns and sweepKs span compile-sweep's rounds. At k = 2 every
// built-in design splits with no replicated vertex and zero cut cost, so
// k = 8 is where replication, k-way FM and dereplication do work.
var (
	sweepDesigns = []string{"RocketChip-1C", "SmallBOOM-2C", "LargeBOOM-2C", "MegaBOOM-4C"}
	sweepKs      = []int{2, 8}
)

// smokeCycles is the length of each job's closing smoke run. It runs on a
// one-lane sim.BatchEngine, which evaluates every partition in turn on
// one goroutine, so a k = 8 program never needs more threads than nproc.
const smokeCycles = 64

// sweepWorkload compiles every design at every k from IR text with
// Verify and Validate on, each round, and smoke-runs the result.
type sweepWorkload struct {
	texts []string
}

type sweepJob struct {
	fp, hash uint64
	report   *repcut.PartitionReport
}

func (w *sweepWorkload) Setup(r *Run) error {
	w.texts = w.texts[:0]
	for _, name := range sweepDesigns {
		cfg, err := designs.ParseName(name)
		if err != nil {
			return err
		}
		w.texts = append(w.texts, designText(cfg))
	}
	return nil
}

func (w *sweepWorkload) Close() {}

func (w *sweepWorkload) Measure(r *Run) error {
	cfg, _ := designs.ParseName(sweepDesigns[0])
	if printedNameParses(cfg) {
		r.Note("firrtl.Print/Parse name defect is fixed: the rename in designText can go")
	} else {
		r.Note("known defect still present: printed built-in names do not parse; designs renamed before printing")
	}
	fps := map[string]uint64{} // first fingerprint per design/k, from an untraced round
	quality := map[string]*repcut.PartitionReport{}
	var plain, traced []Sample    // round seconds
	jobS := map[string][]Sample{} // untraced job seconds per design/k
	jobs := 0
	start := time.Now()
	for round, deadline := 0, start.Add(r.Seconds); round == 0 || time.Now().Before(deadline); round++ {
		// Traced runs alternate traced rounds (the staged pipeline under
		// spans) with untraced ones (CompileProgram) for trace.overhead;
		// round 0 is always untraced and fixes the reference fingerprints.
		tr := r.Tracer != nil && round%2 == 1
		t0, s0 := time.Now(), stealTicks()
		for di, name := range sweepDesigns {
			hashes := map[int]uint64{}
			for _, k := range sweepKs {
				key := fmt.Sprintf("%s/k%d", name, k)
				var j *sweepJob
				var err error
				tj, sj := time.Now(), stealTicks()
				if tr {
					j, err = w.tracedJob(r, fmt.Sprintf("r%d/%s", round, key), w.texts[di], k)
				} else {
					j, err = w.job(r, w.texts[di], k)
				}
				jobs++
				if !r.Op(err) {
					continue
				}
				if !tr {
					jobS[key] = append(jobS[key], Sample{time.Since(tj).Seconds(), stealTicks() - sj})
				}
				if ref, ok := fps[key]; !ok {
					fps[key] = j.fp
				} else {
					r.Check(ref == j.fp, "%s round %d: fingerprint %016x, first round %016x (traced=%v)", key, round, j.fp, ref, tr)
				}
				hashes[k] = j.hash
				if k == 8 {
					quality[name] = j.report
				}
			}
			if len(hashes) == len(sweepKs) {
				r.Check(hashes[2] == hashes[8], "%s round %d: state hash after smoke differs between k=2 and k=8", name, round)
			}
		}
		d := Sample{time.Since(t0).Seconds(), stealTicks() - s0}
		if tr {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	// A sweep's time is the sum of each job's median calm time: noise that
	// hits one job in one round then moves the figure less than a round
	// median would.
	var sweep float64
	for _, ss := range jobS {
		sweep += Summarize(Calm(ss)).Median
	}
	s := r.SummarizeCalm("round_s", plain)
	r.Named("compile_sweep_s", "s", sweep, &s, fmt.Sprintf("sum of job medians; %d designs x k in %v, Verify+Validate; stats are whole rounds", len(sweepDesigns), sweepKs))
	r.E2E("throughput", Ratio(float64(len(sweepDesigns)*len(sweepKs)), sweep))
	r.E2E("latency_ms", sweep*1e3)
	r.Note("%d jobs in %d rounds", jobs, len(plain)+len(traced))
	if r.Tracer == nil {
		return nil
	}
	r.Layer("trace.overhead", 1-Ratio(s.Median, Summarize(Calm(traced)).Median))
	w.reportLayers(r, len(traced))
	for _, name := range sweepDesigns {
		q := quality[name]
		if q == nil {
			continue
		}
		r.Layer("core.k8.replication_cost."+name, q.ReplicationCost)
		r.Layer("core.k8.cut_cost."+name, float64(q.CutCost))
		r.Layer("core.k8.derep_regs."+name, float64(q.DerepRegs))
		r.Layer("core.k8.imbalance."+name, q.ImbalanceIncl)
	}
	return nil
}

// job is one untraced compile through the public API.
func (w *sweepWorkload) job(r *Run, text string, k int) (*sweepJob, error) {
	circ, err := repcut.ParseCircuit(text)
	if err != nil {
		return nil, err
	}
	d, err := repcut.Elaborate(circ)
	if err != nil {
		return nil, err
	}
	c, err := d.CompileProgram(repcut.Options{Threads: k, Seed: r.Seed, Verify: true, Validate: true})
	if err != nil {
		return nil, err
	}
	h, err := smoke(nil, c.Program)
	if err != nil {
		return nil, err
	}
	return &sweepJob{fp: c.Program.Fingerprint(), hash: h, report: c.Report}, nil
}

// tracedJob is the same compile one public call at a time under spans.
func (w *sweepWorkload) tracedJob(r *Run, group, text string, k int) (*sweepJob, error) {
	root := r.Tracer.Begin(group, "bench.job")
	defer root.End()
	circ, err := Around(root, "firrtl.parse", func() (*firrtl.Circuit, error) { return repcut.ParseCircuit(text) })
	if err != nil {
		return nil, err
	}
	var g *cgraph.Graph
	if g, err = stagedElaborate(root, circ); err != nil {
		return nil, err
	}
	st, err := stagedCompile(root, g, k, r.Seed, true)
	if err != nil {
		return nil, err
	}
	h, err := smoke(root, st.Program)
	if err != nil {
		return nil, err
	}
	res := st.Result
	rep := &repcut.PartitionReport{
		ReplicationCost: res.ReplicationCost, CutCost: res.CutCost,
		DerepRegs: res.DerepRegs, ImbalanceIncl: res.ImbalanceIncl,
	}
	return &sweepJob{fp: st.Program.Fingerprint(), hash: h, report: rep}, nil
}

// smoke runs the program briefly on one batch lane and hashes its state.
func smoke(parent *Open, p *sim.Program) (uint64, error) {
	sp := parent.Child("sim.smoke")
	defer sp.End()
	be, err := sim.NewBatchEngine(p, 1)
	if err != nil {
		return 0, err
	}
	be.Run(smokeCycles)
	return be.StateHashLane(0)
}

// reportLayers sets the stage metrics as time per traced round (one full
// sweep); core.partition_ms counts only the k = 8 jobs.
func (w *sweepWorkload) reportLayers(r *Run, rounds int) {
	spans := r.Tracer.Spans()
	k8 := func(g string) bool { return strings.HasSuffix(g, "/k8") }
	per := func(name string, keep func(string) bool) float64 {
		return sumMs(Durations(spans, name, keep)) / float64(max(rounds, 1))
	}
	r.Layer("firrtl.parse_ms", per("firrtl.parse", nil))
	r.Layer("firrtl.flatten_ms", per("firrtl.flatten", nil))
	r.Layer("firrtl.lower_ms", per("firrtl.lower", nil))
	r.Layer("cgraph.build_ms", per("cgraph.build", nil))
	r.Layer("core.partition_ms", per("core.partition", k8))
	r.Layer("sim.compile_ms", per("sim.compile", nil))
	r.Layer("sim.link_ms", per("sim.link", nil))
	r.Layer("verify.program_ms", per("verify.program", nil))
}
