// Command perfbench is the repository's benchmark. It runs one workload
// in-process against the repcut library and the repcutd service package,
// checks every output, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). A run whose output checks fail prints correct=false and
// exits 1. Build and run it through run.py, which sets up a build cache
// and scratch space inside the checkout:
//
//	python3 perfbench/run.py --workload sim-long --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the known defects the
// benchmark works around.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Workload is one benchmark input set. Setup builds everything the timed
// part needs (its wall time is setup_s); Measure runs for the run's
// duration and reports metrics; Close releases what Setup started.
type Workload interface {
	Setup(r *Run) error
	Measure(r *Run) error
	Close()
}

// workloadSpec names a workload, its constructor and the most simulation
// threads it runs at once (which must not exceed nproc).
type workloadSpec struct {
	threads int
	make    func() Workload
}

var workloads = map[string]workloadSpec{
	"sim-long":      {simThreads, func() Workload { return &simWorkload{step: false} }},
	"sim-step":      {simThreads, func() Workload { return &simWorkload{step: true} }},
	"compile-sweep": {1, func() Workload { return &sweepWorkload{} }},
	"service-mix":   {1, func() Workload { return &serviceWorkload{} }},
}

// setupProbes is how many fresh processes each time one set-up for
// setup_s; the median is reported. Fresh processes pay what a user pays
// (plugin load, first-use allocation) on every sample.
const setupProbes = 5

// Run carries one invocation's settings and collects its results.
type Run struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Tracer   *Tracer // nil unless -trace 1
	WorkDir  string
	// ColdKernel is set by a set-up that had to build its native kernel.
	ColdKernel bool

	attempted, failed int
	failures          []string

	e2e     map[string]float64
	layer   map[string]float64
	named   []namedMetric // workload-specific figures for the human report
	notes   []string
	summary map[string]Summary
}

type namedMetric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Label string   `json:"label,omitempty"`
	Stats *Summary `json:"stats,omitempty"`
}

// Op counts one attempted operation; a non-nil error counts as failed.
// It reports whether the operation succeeded.
func (r *Run) Op(err error) bool {
	r.attempted++
	if err != nil {
		r.fail(err.Error())
		return false
	}
	return true
}

// Check counts one output check.
func (r *Run) Check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *Run) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
}

// Ops adds n operations already executed, of which bad failed.
func (r *Run) Ops(n, bad int, msgs []string) {
	r.attempted += n
	r.failed += bad
	for _, m := range msgs {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, m)
		}
	}
}

// E2E sets an end-to-end metric (catalogued in e2eMetrics).
func (r *Run) E2E(name string, v float64) { r.e2e[name] = v }

// Layer sets a per-layer metric (catalogued in layerMetrics).
func (r *Run) Layer(name string, v float64) { r.layer[name] = v }

// Named records a figure under the name the workload's documentation
// uses (sim_khz, step_ms.p99, ...) for the human report and the record.
func (r *Run) Named(name, unit string, v float64, stats *Summary, label string) {
	r.named = append(r.named, namedMetric{Name: name, Unit: unit, Value: v, Stats: stats, Label: label})
}

// Note adds a line to the human report and the record.
func (r *Run) Note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Summarize records the sample summary under name and returns it.
func (r *Run) Summarize(name string, xs []float64) Summary {
	s := Summarize(xs)
	r.summary[name] = s
	return s
}

// Provenance describes where and how a record was measured.
type Provenance struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	CPU            string `json:"cpu_model"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	SourceSHA256   string `json:"source_sha256"`
	MaxThreads     int    `json:"max_sim_threads"`
	Oversubscribed bool   `json:"oversubscribed"`
	SetupProbes    int    `json:"setup_repetitions"`
	// StealShare is the share of CPU time the hypervisor took from this
	// machine while the workload was measured, a noise indicator.
	StealShare float64 `json:"cpu_steal_share"`
}

// Record is the full result of one run, written under the work directory.
// Every record carries the same provenance block; each sampled metric
// carries its repetition count, median and quartiles.
type Record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Provenance Provenance         `json:"provenance"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorRate  float64            `json:"error_rate"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Named      []namedMetric      `json:"named"`
	Samples    map[string]Summary `json:"samples"`
	Notes      []string           `json:"notes,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: sim-long, sim-step, compile-sweep or service-mix")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		probe    = flag.Bool("setup-probe", false, "time one set-up and exit (internal)")
	)
	flag.Parse()
	spec, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if spec.threads > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: %s runs %d simulation threads but nproc is %d: refusing an oversubscribed run\n",
			*workload, spec.threads, nproc)
		return 2
	}
	work := os.Getenv("PERFBENCH_WORK")
	if work == "" {
		work = filepath.Join(".bench_build", "perfbench")
	}
	r := &Run{
		Workload: *workload, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, WorkDir: work,
		e2e: map[string]float64{}, layer: map[string]float64{}, summary: map[string]Summary{},
	}
	if *probe {
		return runProbe(r, spec)
	}
	if *trace == 1 {
		r.Tracer = NewTracer()
	}
	for _, d := range []string{"records", "traces"} {
		if err := os.MkdirAll(filepath.Join(work, d), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	setupS, err := probeSetups(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	w := spec.make()
	defer w.Close()
	if err := w.Setup(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	steal0, total0 := cpuTicks()
	if err := w.Measure(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: measure:", err)
		return 1
	}
	steal1, total1 := cpuTicks()
	r.E2E("setup_s", setupS)
	r.E2E("rss_mb", peakRSSMiB())
	if r.Tracer != nil {
		spans := r.Tracer.Spans()
		reportSelfShares(r, spans)
		path := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed))
		if err := WriteSpans(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		r.Note("spans: %d written to %s", len(spans), path)
	}
	prov := provenance(nproc, spec.threads)
	prov.StealShare = Ratio(float64(steal1-steal0), float64(total1-total0))
	return finish(r, prov, *trace == 1)
}

// runProbe times one set-up in this (fresh) process and prints it.
func runProbe(r *Run, spec workloadSpec) int {
	w := spec.make()
	defer w.Close()
	start, s0 := time.Now(), stealTicks()
	if err := w.Setup(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe set-up:", err)
		return 1
	}
	out, _ := json.Marshal(map[string]any{
		"setup_s": time.Since(start).Seconds(), "steal": stealTicks() - s0, "cold": r.ColdKernel,
	})
	fmt.Println(string(out))
	return 0
}

// probeSetups times setupProbes set-ups, each in a fresh process, and
// returns the median of the calm ones (see Calm). A probe that had to
// build a native kernel (first use of a seed in this checkout) is
// discarded and repeated, so setup_s always means a warm artifact store.
func probeSetups(r *Run) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []Sample
	for tries := 0; len(xs) < setupProbes && tries < setupProbes+1; tries++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", r.Workload,
			"-seed", strconv.FormatInt(r.Seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var p struct {
			SetupS float64 `json:"setup_s"`
			Steal  uint64  `json:"steal"`
			Cold   bool    `json:"cold"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &p); err != nil {
			return 0, fmt.Errorf("probe output: %w", err)
		}
		if !p.Cold {
			xs = append(xs, Sample{p.SetupS, p.Steal})
		}
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("no warm set-up probe")
	}
	return r.SummarizeCalm("setup_s", xs).Median, nil
}

// reportSelfShares turns span self times into each layer's share of the
// traced time.
func reportSelfShares(r *Run, spans []Span) {
	self := SelfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range selfLayers {
		r.Layer(l+".self_share", Ratio(float64(self[l]), float64(total)))
	}
}

// finish writes the record, prints the human report and the result line,
// and returns the exit code.
func finish(r *Run, prov Provenance, traced bool) int {
	prov.SetupProbes = setupProbes
	metrics := map[string]Value{}
	values := map[string]float64{}
	if traced {
		for _, m := range layerMetrics {
			v := r.layer[m.Name] // a layer this workload never calls reports 0
			values[m.Name], metrics[m.Name] = v, Value{v, m.Unit}
		}
	} else {
		for _, m := range e2eMetrics {
			v := r.e2e[m.Name]
			r.Check(v != 0, "end-to-end metric %s not measured", m.Name)
			values[m.Name], metrics[m.Name] = v, Value{v, m.Unit}
		}
	}
	rec := Record{
		Workload: r.Workload, Seed: r.Seed, Seconds: r.Seconds.Seconds(), Trace: traced,
		Provenance: prov, Attempted: r.attempted, Failed: r.failed,
		ErrorRate: Ratio(float64(r.failed), float64(r.attempted)),
		Failures:  r.failures, Named: r.named, Samples: r.summary, Notes: r.notes,
	}
	if traced {
		rec.PerLayer = values
	} else {
		rec.EndToEnd = values
	}
	line := ResultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	path := filepath.Join(r.WorkDir, "records", fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, btoi(traced)))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write record:", err)
	}
	printReport(&rec, line)
	out, err := json.Marshal(line)
	if err == nil {
		_, err = ParseResultLine(out) // never print a line a reader would reject
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func printReport(rec *Record, line ResultLine) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	p := rec.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source=%s max_sim_threads=%d oversubscribed=%v steal=%.3f\n",
		p.NProc, p.GOMAXPROCS, p.CPU, p.GoVersion, p.Commit, p.SourceSHA256[:12], p.MaxThreads, p.Oversubscribed, p.StealShare)
	for _, m := range rec.Named {
		fmt.Fprintf(w, "  %-24s %14.4f %-6s", m.Name, m.Value, m.Unit)
		if m.Stats != nil && m.Stats.N > 1 {
			fmt.Fprintf(w, " n=%d median=%.4g q1=%.4g q3=%.4g", m.Stats.N, m.Stats.Median, m.Stats.Q1, m.Stats.Q3)
		}
		if m.Label != "" {
			fmt.Fprintf(w, " (%s)", m.Label)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-24s %14.4f %-6s (%d failed of %d attempted)\n", "error_rate", rec.ErrorRate, "ratio", rec.Failed, rec.Attempted)
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s metrics:\n", kind)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func provenance(nproc, threads int) Provenance {
	return Provenance{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), GoVersion: runtime.Version(),
		Commit: gitCommit(), SourceSHA256: sourceDigest("."), MaxThreads: threads,
		Oversubscribed: threads > nproc,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree; source_sha256 identifies the code either way.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	// Only the working directory's own repository: never search above it.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build area), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
