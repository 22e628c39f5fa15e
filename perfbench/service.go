package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/genckt"
	"repro/internal/service"
)

const (
	serviceClients = 2
	sessionRounds  = 4
	// restoreEvery: each client's every restoreEvery-th session resumes
	// from that client's latest fresh checkpoint of the chosen design.
	restoreEvery = 4
	// stealWindow is the steal sampling period: sessions_per_s is the
	// median over calm windows of this length.
	stealWindow = 500 * time.Millisecond
)

// serviceBuiltins are the built-in designs in service-mix; the seeded
// genckt circuit is the fourth design and the only one with inputs.
var serviceBuiltins = []string{"RocketChip-1C", "RocketChip-2C", "SmallBOOM-1C"}

// serviceWorkload drives an in-process repcutd server (default config:
// 16-lane batching on, codegen off) over loopback with closed-loop
// clients and no think time.
type serviceWorkload struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	reqs   []service.CompileRequest
	ports  []designPorts
}

// designPorts are the narrow ports a session pokes and peeks.
type designPorts struct {
	key    string
	inputs []service.PortInfo
	output string
}

// sessOp is one replayable session operation.
type sessOp struct {
	kind  byte // 'p' poke, 'r' run, 'k' peek
	name  string
	value uint64 // poke value, or the value a peek returned
	n     int
}

// sessLog is what a session did, for the replay check.
type sessLog struct {
	design   int
	ops      []sessOp // from power-on, including a restored source's ops
	hash     string   // final checkpoint state hash
	restored bool
}

// checkpoint is a client's latest fresh-session checkpoint of a design.
type checkpoint struct {
	state []byte
	hash  string
	ops   []sessOp
}

// clientStats is one client's tallies, merged after the run.
type clientStats struct {
	lat       map[string][]float64 // op → ms, untraced sessions
	runEnd    []time.Time          // end of each lat["run"] sample
	doneAt    []time.Time          // completion time of each session
	tracedLat map[string][]float64 // op → ms, traced sessions
	sessions  int
	attempted int
	failed    int
	overloads int
	msgs      []string
	logs      []*sessLog
}

func (w *serviceWorkload) Setup(r *Run) error {
	w.reqs = w.reqs[:0]
	for _, d := range serviceBuiltins {
		w.reqs = append(w.reqs, service.CompileRequest{Design: d, Threads: 1, Seed: r.Seed})
	}
	text, err := genText(r.Seed)
	if err != nil {
		return err
	}
	w.reqs = append(w.reqs, service.CompileRequest{Source: text, Threads: 1, Seed: r.Seed})

	w.srv = service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	c := newClient(w.base)
	defer c.HTTP.CloseIdleConnections()
	w.ports = w.ports[:0]
	for _, req := range w.reqs {
		resp, err := c.Compile(req)
		if err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		dp := designPorts{key: resp.Key}
		for _, in := range resp.Inputs {
			if !in.Wide {
				dp.inputs = append(dp.inputs, in)
			}
		}
		for _, out := range resp.Outputs {
			if !out.Wide {
				dp.output = out.Name
				break
			}
		}
		if dp.output == "" {
			return fmt.Errorf("design %d has no narrow output", len(w.ports))
		}
		w.ports = append(w.ports, dp)
	}
	return nil
}

// genText generates the seeded genckt circuit: the first seed from the
// workload seed on whose circuit has a narrow input and a narrow output.
// Ports and registers are at most 64 bits wide. With genckt's default of
// 128, the count of wide nodes varies from 53 to 132 between seeds. Wide
// nodes take the batch tier's per-lane path, so sessions/s moved 15% with
// the seed alone, swamping what this workload measures: the serving path
// around a small eval.
func genText(seed int64) (string, error) {
	for s := seed; s < seed+100; s++ {
		spec := genckt.Generate(genckt.Config{Seed: s, Size: 200, MaxWidth: 64, Name: "Gen"})
		narrowIn, narrowOut := false, false
		for _, in := range spec.Inputs {
			narrowIn = narrowIn || in.Type.Width <= 64
		}
		for _, out := range spec.Outputs {
			narrowOut = narrowOut || out.Type.Width <= 64
		}
		if !narrowIn || !narrowOut {
			continue
		}
		d, err := spec.Build()
		if err != nil {
			continue
		}
		return d.Text, nil
	}
	return "", fmt.Errorf("no usable genckt circuit near seed %d", seed)
}

func newClient(base string) *service.Client {
	return &service.Client{BaseURL: base, HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (w *serviceWorkload) Close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // best effort at exit; Serve's return is awaited below
	<-w.served
	_ = w.srv.Shutdown(ctx)
}

func (w *serviceWorkload) Measure(r *Run) error {
	stats := make([]*clientStats, serviceClients)
	start := time.Now()
	deadline := start.Add(r.Seconds)
	sw := WatchSteal(stealWindow)
	var wg sync.WaitGroup
	for id := range stats {
		stats[id] = &clientStats{lat: map[string][]float64{}, tracedLat: map[string][]float64{}}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w.client(r, id, deadline, stats[id])
		}(id)
	}
	wg.Wait()
	sw.Stop()

	all := &clientStats{lat: map[string][]float64{}, tracedLat: map[string][]float64{}}
	for _, s := range stats {
		all.sessions += s.sessions
		all.doneAt = append(all.doneAt, s.doneAt...)
		all.runEnd = append(all.runEnd, s.runEnd...)
		all.overloads += s.overloads
		all.logs = append(all.logs, s.logs...)
		for op, xs := range s.lat {
			all.lat[op] = append(all.lat[op], xs...)
		}
		for op, xs := range s.tracedLat {
			all.tracedLat[op] = append(all.tracedLat[op], xs...)
		}
		r.Ops(s.attempted, s.failed, s.msgs)
	}
	if err := w.replay(r, all.logs); err != nil {
		return err
	}

	// Sessions completed per steal window, and each Run latency tagged with
	// the steal of the window it ended in. A window shorter than half the
	// period (the tail after the deadline) is too short to count.
	windows := make([]Sample, sw.Windows())
	for _, t := range all.doneAt {
		if i := sw.Window(t); i >= 0 {
			windows[i].V++
		}
	}
	var rates []Sample
	for i := range windows {
		stolen, d := sw.Steal(i)
		if d >= stealWindow/2 {
			rates = append(rates, Sample{windows[i].V / d.Seconds(), stolen})
		}
	}
	runs := make([]Sample, len(all.lat["run"]))
	for i, v := range all.lat["run"] {
		runs[i].V = v
		if wi := sw.Window(all.runEnd[i]); wi >= 0 {
			runs[i].Steal, _ = sw.Steal(wi)
		}
	}
	spsS := r.SummarizeCalm("sessions_per_s", rates)
	sps := spsS.Median
	step := r.SummarizeCalm("step_ms", runs)
	r.Named("sessions_per_s", "1/s", sps, &spsS, fmt.Sprintf("%d sessions, %d closed-loop clients; median over calm %v windows", all.sessions, serviceClients, stealWindow))
	r.Named("step_ms.p50", "ms", step.Median, &step, "SessionHandle.Run, client-timed")
	if step.TailPct > 0 {
		r.Named(fmt.Sprintf("step_ms.p%g", round1(step.TailPct)), "ms", step.Tail, nil, "tail")
	}
	r.E2E("throughput", sps)
	r.E2E("latency_ms", step.Median)

	m := w.srv.Metrics()
	r.Note("server: cache hit rate %.3f, mean lanes per run %.2f, occupancy %.3f, %d batched / %d solo sessions",
		m.Cache.HitRate, m.Batch.MeanLanesPerRun, m.Batch.OccupancyRatio, m.Batch.SessionsBatched, m.Batch.SessionsSolo)
	if r.Tracer == nil {
		return nil
	}
	spans := r.Tracer.Spans()
	for _, op := range []string{"compile", "create", "poke", "run", "peek", "checkpoint", "restore", "close"} {
		r.Layer("service."+op+"_ms", durSummary(Durations(spans, "service."+op, nil)).Median/1e6)
	}
	r.Layer("service.cache_hit_rate", m.Cache.HitRate)
	r.Layer("service.lanes_per_run", m.Batch.MeanLanesPerRun)
	r.Layer("service.batch_occupancy", m.Batch.OccupancyRatio)
	r.Layer("service.overloads", float64(int64(all.overloads)+m.Compile.Rejected+m.Sessions.Rejected))
	// Closed loop: the run call's latency ratio is its throughput ratio.
	r.Layer("trace.overhead", 1-Ratio(step.Median, Summarize(all.tracedLat["run"]).Median))
	return nil
}

// client runs closed-loop sessions until the deadline. The client's
// random source (from the workload seed) picks each session's design, run
// lengths and poke values, so the seed fixes how the two clients
// interleave designs.
func (w *serviceWorkload) client(r *Run, id int, deadline time.Time, st *clientStats) {
	rng := rand.New(rand.NewSource(r.Seed*7919 + int64(id)))
	c := newClient(w.base)
	defer c.HTTP.CloseIdleConnections()
	latest := map[int]*checkpoint{}
	for n := 0; time.Now().Before(deadline); n++ {
		di := rng.Intn(len(w.reqs))
		traced := r.Tracer != nil && n%2 == 1
		var root *Open
		if traced {
			root = r.Tracer.Begin(fmt.Sprintf("c%d/s%d", id, n), "bench.session")
		}
		log, ok := w.session(c, rng, st, root, di, n, latest)
		root.End()
		if !ok {
			continue
		}
		st.sessions++
		st.doneAt = append(st.doneAt, time.Now())
		st.logs = append(st.logs, log)
	}
}

// call times one client operation, counts it, and classifies failures.
func call[T any](st *clientStats, root *Open, op string, f func() (T, error)) (T, error) {
	sp := root.Child("service." + op)
	t0 := time.Now()
	v, err := f()
	d := time.Since(t0)
	sp.End()
	st.attempted++
	if err != nil {
		st.failed++
		if s := service.StatusOf(err); s == http.StatusTooManyRequests || s == http.StatusServiceUnavailable {
			st.overloads++
		}
		if len(st.msgs) < 20 {
			st.msgs = append(st.msgs, fmt.Sprintf("%s: %v", op, err))
		}
		return v, err
	}
	if root != nil {
		st.tracedLat[op] = append(st.tracedLat[op], ms(d))
	} else {
		st.lat[op] = append(st.lat[op], ms(d))
		if op == "run" {
			st.runEnd = append(st.runEnd, time.Now())
		}
	}
	return v, nil
}

// check counts one client-side output check.
func (st *clientStats) check(ok bool, format string, args ...any) {
	st.attempted++
	if !ok {
		st.failed++
		if len(st.msgs) < 20 {
			st.msgs = append(st.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// session runs one session: compile (a cache hit), create or restore,
// rounds of poke/run/peek, checkpoint, close.
func (w *serviceWorkload) session(c *service.Client, rng *rand.Rand, st *clientStats, root *Open,
	di, n int, latest map[int]*checkpoint) (*sessLog, bool) {
	dp := w.ports[di]
	if _, err := call(st, root, "compile", func() (*service.CompileResponse, error) { return c.Compile(w.reqs[di]) }); err != nil {
		return nil, false
	}
	log := &sessLog{design: di}
	var h *service.SessionHandle
	var err error
	if src := latest[di]; n%restoreEvery == restoreEvery-1 && src != nil {
		log.restored = true
		log.ops = append(log.ops, src.ops...)
		if h, err = call(st, root, "restore", func() (*service.SessionHandle, error) {
			return c.RestoreSession(dp.key, src.state, false)
		}); err != nil {
			return nil, false
		}
		cp, err := call(st, root, "checkpoint", h.Checkpoint)
		if err == nil {
			st.check(cp.StateHash == src.hash, "restored session starts at hash %s, its source checkpointed %s", cp.StateHash, src.hash)
		}
	} else if h, err = call(st, root, "create", func() (*service.SessionHandle, error) { return c.NewSession(dp.key) }); err != nil {
		return nil, false
	}
	ok := true
	for round := 0; round < sessionRounds && ok; round++ {
		for _, in := range dp.inputs {
			v := rng.Uint64()
			if in.Width < 64 {
				v &= 1<<uint(in.Width) - 1
			}
			_, err := call(st, root, "poke", func() (struct{}, error) { return struct{}{}, h.Poke(in.Name, v) })
			ok = ok && err == nil
			log.ops = append(log.ops, sessOp{kind: 'p', name: in.Name, value: v})
		}
		cycles := 20 + rng.Intn(41)
		_, err := call(st, root, "run", func() (uint64, error) { return h.Run(cycles) })
		ok = ok && err == nil
		log.ops = append(log.ops, sessOp{kind: 'r', n: cycles})
		v, err := call(st, root, "peek", func() (uint64, error) { return h.Peek(dp.output) })
		ok = ok && err == nil
		log.ops = append(log.ops, sessOp{kind: 'k', name: dp.output, value: v})
	}
	var cp *service.CheckpointResponse
	if ok {
		cp, err = call(st, root, "checkpoint", h.Checkpoint)
		ok = err == nil
	}
	if _, err := call(st, root, "close", h.Close); err != nil {
		ok = false
	}
	if !ok {
		return nil, false
	}
	log.hash = cp.StateHash
	if !log.restored {
		latest[di] = &checkpoint{state: cp.State, hash: cp.StateHash, ops: log.ops}
	}
	return log, true
}

// replay re-runs every completed session on a local library simulator,
// outside timing, and checks each peeked value and the final state hash.
func (w *serviceWorkload) replay(r *Run, logs []*sessLog) error {
	compiled := make([]*repcut.Compiled, len(w.reqs))
	for i, req := range w.reqs {
		circ, err := resolve(req)
		if err != nil {
			return err
		}
		d, err := repcut.Elaborate(circ)
		if err != nil {
			return err
		}
		if compiled[i], err = d.CompileProgram(repcut.Options{Threads: 1, Seed: req.Seed}); err != nil {
			return err
		}
	}
	for _, l := range logs {
		s := compiled[l.design].NewSimulator()
		good := true
		for _, op := range l.ops {
			switch op.kind {
			case 'p':
				good = good && s.PokeInput(op.name, op.value) == nil
			case 'r':
				s.Run(op.n)
			case 'k':
				v, err := s.PeekOutput(op.name)
				good = good && err == nil && v == op.value
			}
		}
		h := fmt.Sprintf("%016x", s.StateHash())
		r.Check(good && h == l.hash, "session on design %d (restored=%v): replay hash %s, server %s, peeks match=%v",
			l.design, l.restored, h, l.hash, good)
	}
	return nil
}

// resolve builds a request's circuit the way the server does.
func resolve(req service.CompileRequest) (*firrtl.Circuit, error) {
	if req.Source != "" {
		return repcut.ParseCircuit(req.Source)
	}
	cfg, err := designs.ParseName(req.Design)
	if err != nil {
		return nil, err
	}
	return designs.BuildCircuit(cfg), nil
}
