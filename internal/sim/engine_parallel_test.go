package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// partSpecs converts a core partitioning into compiler PartSpecs.
func partSpecs(res *core.Result) []PartSpec {
	specs := make([]PartSpec, len(res.Parts))
	for i := range res.Parts {
		specs[i] = PartSpec{Vertices: res.Parts[i].Vertices, Sinks: res.Parts[i].Sinks}
	}
	return specs
}

// TestParallelMatchesSerial is the central correctness claim: a RepCut
// parallel simulator must be cycle-exact with the serial simulator for any
// thread count, replication included.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 70)
			serialProg, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
			if err != nil {
				t.Fatalf("serial compile: %v", err)
			}
			ref := NewReference(g)
			serial := NewEngine(serialProg)

			for _, k := range []int{2, 3, 4, 7} {
				res, err := core.Partition(g, core.Options{
					K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1,
				})
				if err != nil {
					t.Fatalf("partition k=%d: %v", k, err)
				}
				if err := core.Verify(g, res); err != nil {
					t.Fatalf("partition verify k=%d: %v", k, err)
				}
				prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
				if err != nil {
					t.Fatalf("compile k=%d: %v", k, err)
				}
				par := NewEngine(prog)
				serial.Reset()
				ref.Reset()

				rng := rand.New(rand.NewSource(seed))
				for cyc := 0; cyc < 12; cyc++ {
					v1 := rng.Uint64()
					w := bitvec.New(70)
					for j := range w.Words {
						w.Words[j] = rng.Uint64()
					}
					w = bitvec.ZeroExtend(70, w)
					for _, e := range []*Engine{serial, par} {
						if err := e.PokeInput("in1", v1); err != nil {
							t.Fatal(err)
						}
						if err := e.PokeInputVec("in2", w); err != nil {
							t.Fatal(err)
						}
					}
					if err := ref.PokeInputUint("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := ref.PokeInput("in2", w); err != nil {
						t.Fatal(err)
					}
					serial.Run(1)
					par.Run(1)
					ref.Step()
					compareState(t, g, par, ref, fmt.Sprintf("k=%d cycle=%d", k, cyc))
					// And serial against parallel on every register.
					for i := range g.Regs {
						sv, _ := serial.PeekReg(g.Regs[i].Name)
						pv, _ := par.PeekReg(g.Regs[i].Name)
						if !bitvec.Eq(sv, pv) {
							t.Fatalf("k=%d cycle=%d: serial/parallel diverge on %s: %v vs %v",
								k, cyc, g.Regs[i].Name, sv, pv)
						}
					}
				}
			}
		})
	}
}

// Multi-cycle batched runs must agree with single-stepped runs at every
// thread count, on both runner paths: lingering workers, and fresh
// goroutines per call when the threads exceed GOMAXPROCS (forced with
// GOMAXPROCS(1), which the engines read when they are created). Between
// steps the engines are poked, reset and rolled back through a snapshot,
// as a testbench does between Run(1) calls.
func TestBatchedRunMatchesStepped(t *testing.T) {
	g := randomCircuit(t, 99, 50)
	for _, k := range []int{2, 3, 4} {
		prog := partitionedProgram(t, g, k)
		t.Run(fmt.Sprintf("threads%d", k), func(t *testing.T) {
			checkBatchedVsStepped(t, prog)
		})
		t.Run(fmt.Sprintf("threads%d/gomaxprocs1", k), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			checkBatchedVsStepped(t, prog)
		})
	}
}

// partitionedProgram compiles g for k threads.
func partitionedProgram(t testing.TB, g *cgraph.Graph, k int) *Program {
	t.Helper()
	res, err := core.Partition(g, core.Options{K: k, Seed: 5, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumThreads != k {
		t.Fatalf("compiled %d threads, want %d", prog.NumThreads, k)
	}
	return prog
}

// stepSegments are the run lengths between the operations a testbench
// interleaves with stepping; segment i is followed by boundaryOp(i).
var stepSegments = []int{1, 7, 3, 13, 1, 1, 22}

// checkBatchedVsStepped drives one engine with Run(len) per segment, and
// two more with Run(1) per cycle, alternately from one goroutine. It then
// steps two engines from two goroutines at once. Every engine must end each
// segment in the batched engine's state, and the batched engine must count
// the cycles run since its last reset and retire instructions.
func checkBatchedVsStepped(t *testing.T, prog *Program) {
	batched, x, y := NewEngine(prog), NewEngine(prog), NewEngine(prog)
	all := []*Engine{batched, x, y}
	if got, want := batched.Oversubscribed(), prog.NumThreads > runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Oversubscribed() = %v with %d threads at GOMAXPROCS %d", got, prog.NumThreads, runtime.GOMAXPROCS(0))
	}
	var cycles uint64
	for i, n := range stepSegments {
		for _, e := range all {
			boundaryOp(t, e, i)
		}
		if i%3 == 1 {
			cycles = 0 // boundaryOp reset the engines
		}
		batched.Run(n)
		for c := 0; c < n; c++ {
			x.Run(1)
			y.Run(1)
		}
		cycles += uint64(n)
		if batched.Cycles() != cycles || batched.InstrsRetired() == 0 {
			t.Fatalf("segment %d: batched engine reports %d cycles, %d instructions; want %d cycles and some instructions",
				i, batched.Cycles(), batched.InstrsRetired(), cycles)
		}
		for j, e := range all[1:] {
			if e.StateHash() != batched.StateHash() || e.Cycles() != batched.Cycles() ||
				e.InstrsRetired() != batched.InstrsRetired() {
				t.Fatalf("segment %d: stepped engine %d diverges from the batched run", i, j)
			}
		}
	}

	want := batched.StateHash()
	var hashes, counts [2]uint64
	done := make(chan struct{})
	for j := range hashes {
		go func() {
			defer func() { done <- struct{}{} }()
			e := NewEngine(prog)
			for i, n := range stepSegments {
				boundaryOp(t, e, i)
				for c := 0; c < n; c++ {
					e.Run(1)
				}
			}
			hashes[j], counts[j] = e.StateHash(), e.Cycles()
		}()
	}
	<-done
	<-done
	for j, h := range hashes {
		if h != want || counts[j] != cycles {
			t.Fatalf("engine stepped on goroutine %d: state hash %016x after %d cycles, want %016x after %d",
				j, h, counts[j], want, cycles)
		}
	}
}

// boundaryOp applies the testbench operation that precedes segment i: a
// poke of both inputs, a reset, or a snapshot that is restored after
// three wrong cycles.
func boundaryOp(t *testing.T, e *Engine, i int) {
	switch i % 3 {
	case 0:
		w := bitvec.New(70)
		for j := range w.Words {
			w.Words[j] = uint64(i+1) * 0x9e3779b97f4a7c15
		}
		if err := e.PokeInput("in1", uint64(i)*12345+1); err != nil {
			t.Error(err)
		}
		if err := e.PokeInputVec("in2", w); err != nil {
			t.Error(err)
		}
	case 1:
		e.Reset()
	case 2:
		snap := e.Snapshot()
		if err := e.PokeInput("in1", 0xdead); err != nil {
			t.Error(err)
		}
		e.Run(3)
		if err := e.RestoreSnapshot(snap); err != nil {
			t.Error(err)
		}
	}
}

// A multi-thread Run leaves no goroutine behind once its workers' linger
// window has passed, on both runner paths, an engine that is dropped is
// collected, and the process-wide busy thread count returns to zero.
func TestRunLeavesNoGoroutines(t *testing.T) {
	prog := partitionedProgram(t, randomCircuit(t, 99, 50), 2)
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			e := NewEngine(prog)
			e.Run(1)
			e.Run(10)
			e.RunProfiled(2)
			waitFor(t, "goroutine count back to baseline", func() bool { return runtime.NumGoroutine() <= base })

			collected := make(chan struct{})
			e = NewEngine(prog)
			runtime.SetFinalizer(e, func(*Engine) { close(collected) })
			e.Run(1)
			e = nil
			waitFor(t, "dropped engine collected", func() bool {
				runtime.GC()
				select {
				case <-collected:
					return true
				default:
					return false
				}
			})
			waitFor(t, "goroutine count back to baseline", func() bool { return runtime.NumGoroutine() <= base })
			if n := busyThreads.Load(); n != 0 {
				t.Fatalf("busy thread count %d after every run ended", n)
			}
		})
	}
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 1s (%d goroutines)", what, runtime.NumGoroutine())
		}
	}
}

// RunProfiled must produce complete per-phase samples and not perturb
// results.
func TestRunProfiled(t *testing.T) {
	g := randomCircuit(t, 123, 40)
	res, err := core.Partition(g, core.Options{K: 2, Seed: 5, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	samples := e.RunProfiled(5)
	if len(samples) != 5 {
		t.Fatalf("want 5 cycle samples, got %d", len(samples))
	}
	for c, row := range samples {
		if len(row) != 2 {
			t.Fatalf("cycle %d: want 2 thread samples", c)
		}
		for th, s := range row {
			if s.Eval < 0 || s.EvalBarrier < 0 || s.Update < 0 || s.UpdateBarrier < 0 {
				t.Fatalf("cycle %d thread %d: negative phase time %+v", c, th, s)
			}
		}
	}
	if e.Cycles() != 5 {
		t.Fatalf("cycles = %d", e.Cycles())
	}
}

// The layout must give every thread a cache-line-aligned private segment:
// no 64-byte line of the global array is written by two threads.
func TestLayoutNoFalseSharing(t *testing.T) {
	g := randomCircuit(t, 7, 60)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 5, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{})
	if err != nil {
		t.Fatal(err)
	}
	lineOwner := map[int]int{}
	for t_ := range prog.Threads {
		th := &prog.Threads[t_]
		if th.GlobalOff%SegmentWords != 0 {
			t.Fatalf("thread %d segment not aligned: off=%d", t_, th.GlobalOff)
		}
		for w := th.GlobalOff; w < th.GlobalOff+th.ShadowWords; w++ {
			line := w / SegmentWords
			if prev, ok := lineOwner[line]; ok && prev != t_ {
				t.Fatalf("cache line %d written by threads %d and %d", line, prev, t_)
			}
			lineOwner[line] = t_
		}
	}
}

// Determinism under parallel execution: two runs of the same program and
// stimulus give identical state (no ordering races).
func TestParallelDeterminism(t *testing.T) {
	g := randomCircuit(t, 31, 60)
	res, err := core.Partition(g, core.Options{K: 4, Seed: 6, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []bitvec.Vec {
		e := NewEngine(prog)
		if err := e.PokeInput("in1", 777); err != nil {
			t.Fatal(err)
		}
		e.Run(50)
		var out []bitvec.Vec
		for i := range g.Regs {
			v, _ := e.PeekReg(g.Regs[i].Name)
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !bitvec.Eq(a[i], b[i]) {
			t.Fatalf("nondeterministic parallel run at reg %d", i)
		}
	}
}
