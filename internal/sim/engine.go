package sim

import (
	"fmt"
	"time"

	"repro/internal/bitvec"
)

// Engine executes a compiled Program. One Engine holds the global state
// (registers, memories, ports) and per-thread contexts; Run advances the
// simulation by whole cycles using the two-phase barrier protocol of §5.1:
//
//	evaluate (into private shadows) → barrier → global update → barrier.
//
// With a single thread the engine runs the same phases without goroutines
// or barriers — the ESSENT-style serial simulator. With more, the caller's
// goroutine runs thread 0 and the engine's gang (gang.go) the others.
type Engine struct {
	prog *Program
	gs   *globalState
	tcs  []*threadCtx
	gang *gang

	// lp is the linked stream the engine runs and state its unified
	// [globals|imms|frames] word array (link.go); gs.words and each
	// threadCtx's temps/shadow alias slices of state.
	lp    *LinkedProgram
	state []uint64

	// native, when non-nil, replaces the eval phase of each thread with a
	// compiled kernel over the same unified state slice (native.go). Set
	// via InstallNative.
	native []nativeThread

	cycles        uint64
	instrsRetired uint64
}

// NewEngine creates an engine over the program's linked execution form and
// resets it to power-on state. The linked form is built once per Program
// and shared across engines.
func NewEngine(p *Program) *Engine {
	return newEngine(p, p.Linked())
}

// NewUnfusedEngine creates an engine over the program's linked stream
// without the fusion pass: one linked instruction per compiled instruction.
// It is the O0 reference the translation validator and the differential
// oracle compare optimized engines against, so a fusion bug never sits on
// both sides of a comparison. The unfused form is built per call, not
// cached; production callers want NewEngine.
func NewUnfusedEngine(p *Program) *Engine {
	return newEngine(p, link(p, false))
}

func newEngine(p *Program, lp *LinkedProgram) *Engine {
	e := &Engine{prog: p, lp: lp, gang: newGang(p.NumThreads)}
	e.state = make([]uint64, lp.StateWords)
	copy(e.state[lp.ImmOff:], p.Imms)
	e.gs = newGlobalState(p, e.state[:p.GlobalWords:p.GlobalWords])
	for t := range p.Threads {
		th := &p.Threads[t]
		lt := &lp.Threads[t]
		frame := e.state[lt.TempOff : int(lt.TempOff)+th.NumTemps+th.ShadowWords]
		e.tcs = append(e.tcs, newThreadCtx(p, th, frame))
	}
	e.Reset()
	return e
}

// evalThread runs one eval phase of thread t: the native kernel when one is
// installed, the linked stream otherwise.
func (e *Engine) evalThread(t int) {
	if e.native != nil {
		nt := &e.native[t]
		nt.fn(e.state, e.gs.mems, nt.memwr, nt.wide)
		return
	}
	evalLinked(e.lp.Threads[t].Code, e.state, e.prog, e.lp, e.gs, e.tcs[t])
}

// codeLen is the executed stream length of thread t (shorter than the
// compiled stream after fusion).
func (e *Engine) codeLen(t int) int { return len(e.lp.Threads[t].Code) }

// Program returns the engine's compiled program.
func (e *Engine) Program() *Program { return e.prog }

// Cycles returns the number of cycles simulated since the last Reset.
func (e *Engine) Cycles() uint64 { return e.cycles }

// Oversubscribed reports whether the engine has more threads than
// GOMAXPROCS had when the engine was built. Such an engine starts fresh
// goroutines on every Run instead of keeping idle workers.
func (e *Engine) Oversubscribed() bool { return !e.gang.linger }

// InstrsRetired returns the total interpreter instructions executed since
// the last Reset (aggregated over threads).
func (e *Engine) InstrsRetired() uint64 { return e.instrsRetired }

// Reset restores power-on state: registers to their init values, memories
// and outputs to zero.
func (e *Engine) Reset() {
	resetState(e.prog, e.gs)
	for t := range e.tcs {
		e.tcs[t].memBuf = e.tcs[t].memBuf[:0]
		e.tcs[t].wideMemBuf = e.tcs[t].wideMemBuf[:0]
	}
	e.cycles = 0
	e.instrsRetired = 0
}

// PokeInput sets a narrow input port (values wider than 64 bits need
// PokeInputVec). The value is masked to the port width.
func (e *Engine) PokeInput(name string, v uint64) error {
	ps, ok := e.prog.Input(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	if ps.Wide {
		return fmt.Errorf("sim: input %q is %d bits wide; use PokeInputVec", name, ps.Width)
	}
	e.gs.words[ps.Slot] = v & maskOf(ps.Width)
	return nil
}

// PokeInputVec sets an input port of any width.
func (e *Engine) PokeInputVec(name string, v bitvec.Vec) error {
	ps, ok := e.prog.Input(name)
	if !ok {
		return fmt.Errorf("sim: no input %q", name)
	}
	if ps.Wide {
		e.gs.wide[ps.Slot] = bitvec.ZeroExtend(ps.Width, v)
		return nil
	}
	e.gs.words[ps.Slot] = v.Uint64() & maskOf(ps.Width)
	return nil
}

// PeekOutput reads a narrow output port.
func (e *Engine) PeekOutput(name string) (uint64, error) {
	ps, ok := e.prog.Output(name)
	if !ok {
		return 0, fmt.Errorf("sim: no output %q", name)
	}
	if ps.Wide {
		return 0, fmt.Errorf("sim: output %q is %d bits wide; use PeekOutputVec", name, ps.Width)
	}
	return e.gs.words[ps.Slot], nil
}

// PeekOutputVec reads an output port of any width.
func (e *Engine) PeekOutputVec(name string) (bitvec.Vec, error) {
	ps, ok := e.prog.Output(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no output %q", name)
	}
	if ps.Wide {
		return e.gs.wide[ps.Slot].Clone(), nil
	}
	return bitvec.FromUint64(ps.Width, e.gs.words[ps.Slot]), nil
}

// PeekReg reads a register's current value as a bit vector.
func (e *Engine) PeekReg(name string) (bitvec.Vec, error) {
	rs, ok := e.prog.Reg(name)
	if !ok {
		return bitvec.Vec{}, fmt.Errorf("sim: no register %q", name)
	}
	if rs.Wide {
		return e.gs.wide[rs.Slot].Clone(), nil
	}
	return bitvec.FromUint64(rs.Width, e.gs.words[rs.Slot]), nil
}

// PeekMem reads one memory word (narrow memories).
func (e *Engine) PeekMem(name string, addr int) (uint64, error) {
	for mi, m := range e.prog.Mems {
		if m.Name != name {
			continue
		}
		if addr < 0 || addr >= m.Depth {
			return 0, fmt.Errorf("sim: mem %q address %d out of range", name, addr)
		}
		if m.Wide {
			return e.gs.wideMems[mi][addr].Uint64(), nil
		}
		return e.gs.mems[mi][addr], nil
	}
	return 0, fmt.Errorf("sim: no memory %q", name)
}

// PeekMemVec reads one memory word of any element width as a bit vector.
// The differential oracle uses this for full-width comparison of wide
// memories, where PeekMem would drop the high words.
func (e *Engine) PeekMemVec(name string, addr int) (bitvec.Vec, error) {
	for mi, m := range e.prog.Mems {
		if m.Name != name {
			continue
		}
		if addr < 0 || addr >= m.Depth {
			return bitvec.Vec{}, fmt.Errorf("sim: mem %q address %d out of range", name, addr)
		}
		if m.Wide {
			return e.gs.wideMems[mi][addr].Clone(), nil
		}
		return bitvec.FromUint64(m.Width, e.gs.mems[mi][addr]), nil
	}
	return bitvec.Vec{}, fmt.Errorf("sim: no memory %q", name)
}

// update publishes thread t's shadow state: one contiguous copy for narrow
// registers (the memcpy of §5.1), per-slot assignment for wide values, and
// the deferred memory writes.
func (e *Engine) update(t int) {
	th := &e.prog.Threads[t]
	tc := e.tcs[t]
	copy(e.gs.words[th.GlobalOff:th.GlobalOff+th.ShadowWords], tc.shadow)
	for i, slot := range th.WideShadowSlots {
		e.gs.wide[slot] = tc.wideShadow[i]
	}
	for _, w := range tc.memBuf {
		m := e.gs.mems[w.mem]
		if w.addr < uint64(len(m)) {
			m[w.addr] = w.data
		}
	}
	tc.memBuf = tc.memBuf[:0]
	for _, w := range tc.wideMemBuf {
		m := e.gs.wideMems[w.mem]
		if w.addr < uint64(len(m)) {
			m[w.addr] = w.data
		}
	}
	tc.wideMemBuf = tc.wideMemBuf[:0]
}

// Run simulates n cycles.
func (e *Engine) Run(n int) {
	if n <= 0 {
		return
	}
	p := e.prog
	if p.NumThreads == 1 {
		for c := 0; c < n; c++ {
			e.evalThread(0)
			e.update(0)
		}
	} else {
		bar := NewBarrier(p.NumThreads)
		e.gang.run(func(t int) {
			var sense uint32
			for c := 0; c < n; c++ {
				e.evalThread(t)
				bar.Wait(&sense) // evaluation barrier
				e.update(t)
				bar.Wait(&sense) // global update barrier
			}
		})
	}
	e.cycles += uint64(n)
	for t := range p.Threads {
		e.instrsRetired += uint64(e.codeLen(t)) * uint64(n)
	}
}

// PhaseSample is the per-thread timing of one simulated cycle, mirroring
// the rdtsc-based profile of §6.5 (Figures 2 and 12).
type PhaseSample struct {
	Eval          time.Duration // evaluation phase
	EvalBarrier   time.Duration // waiting at the evaluation barrier
	Update        time.Duration // global update phase
	UpdateBarrier time.Duration // waiting at the global update barrier
}

// RunProfiled simulates n cycles recording per-cycle, per-thread phase
// timings. Timestamps are collected locally per thread and assembled after
// the run to minimize perturbation.
func (e *Engine) RunProfiled(n int) [][]PhaseSample {
	p := e.prog
	out := make([][]PhaseSample, n)
	for c := range out {
		out[c] = make([]PhaseSample, p.NumThreads)
	}
	if n <= 0 {
		return out
	}
	bar := NewBarrier(p.NumThreads)
	e.gang.run(func(t int) {
		var sense uint32
		for c := 0; c < n; c++ {
			t0 := time.Now()
			e.evalThread(t)
			t1 := time.Now()
			bar.Wait(&sense)
			t2 := time.Now()
			e.update(t)
			t3 := time.Now()
			bar.Wait(&sense)
			t4 := time.Now()
			out[c][t] = PhaseSample{
				Eval:          t1.Sub(t0),
				EvalBarrier:   t2.Sub(t1),
				Update:        t3.Sub(t2),
				UpdateBarrier: t4.Sub(t3),
			}
		}
		bar.Wait(&sense) // orders the last sample before the return
	})
	e.cycles += uint64(n)
	for t := range p.Threads {
		e.instrsRetired += uint64(e.codeLen(t)) * uint64(n)
	}
	return out
}
