package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/firrtl"
)

// compileSrc compiles textual IR to a serial program at OptLevel 2.
func compileSrc(t testing.TB, src string) *Program {
	t.Helper()
	c, err := firrtl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := firrtl.Check(c); err != nil {
		t.Fatalf("check: %v", err)
	}
	fc, err := firrtl.Flatten(c)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := firrtl.Lower(fc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cgraph.Build(lc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestLinkedMatchesReference is the linked fast path's correctness claim:
// the resolved+fused streams, and the unfused stream the O0 reference
// columns run on, must match the graph-level Reference on every register,
// output and memory word for any thread count.
func TestLinkedMatchesReference(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 70)
			for _, k := range []int{1, 3, 5} {
				specs := SerialSpec(g)
				if k > 1 {
					res, err := core.Partition(g, core.Options{
						K: k, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1,
					})
					if err != nil {
						t.Fatalf("partition k=%d: %v", k, err)
					}
					specs = partSpecs(res)
				}
				prog, err := Compile(g, specs, Config{OptLevel: 2})
				if err != nil {
					t.Fatalf("compile k=%d: %v", k, err)
				}
				linked := NewEngine(prog)
				unfused := NewUnfusedEngine(prog)
				if linked.lp != prog.Linked() || unfused.lp == linked.lp {
					t.Fatalf("k=%d: NewEngine must run the cached linked form, NewUnfusedEngine its own", k)
				}
				for th := range prog.Threads {
					if got, want := len(unfused.lp.Threads[th].Code), len(prog.Threads[th].Code); got != want {
						t.Fatalf("k=%d thread %d: unfused stream has %d instrs, compiled code %d", k, th, got, want)
					}
				}
				ref := NewReference(g)

				rng := rand.New(rand.NewSource(seed * 31))
				for cyc := 0; cyc < 15; cyc++ {
					v1 := rng.Uint64()
					w := bitvec.New(70)
					for j := range w.Words {
						w.Words[j] = rng.Uint64()
					}
					w = bitvec.ZeroExtend(70, w)
					for _, e := range []*Engine{linked, unfused} {
						if err := e.PokeInput("in1", v1); err != nil {
							t.Fatal(err)
						}
						if err := e.PokeInputVec("in2", w); err != nil {
							t.Fatal(err)
						}
						e.Run(1)
					}
					if err := ref.PokeInputUint("in1", v1); err != nil {
						t.Fatal(err)
					}
					if err := ref.PokeInput("in2", w); err != nil {
						t.Fatal(err)
					}
					ref.Step()
					compareState(t, g, linked, ref, fmt.Sprintf("k=%d cycle=%d linked", k, cyc))
					compareState(t, g, unfused, ref, fmt.Sprintf("k=%d cycle=%d unfused", k, cyc))
				}
			}
		})
	}
}

// Linking must not change the program's observable identity: the linked
// form is derived state, excluded from Fingerprint.
func TestLinkedFingerprintUnchanged(t *testing.T) {
	g := randomCircuit(t, 41, 60)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := prog.Fingerprint()
	lp := prog.Linked()
	if lp == nil || lp.Program() != prog {
		t.Fatalf("Linked() returned %v", lp)
	}
	if after := prog.Fingerprint(); after != before {
		t.Fatalf("Fingerprint changed by linking: %016x -> %016x", before, after)
	}
	if prog.Linked() != lp {
		t.Fatal("Linked() not cached: second call returned a different object")
	}
}

// The unified state layout must give every region a disjoint, cache-line
// aligned range, and LinkedLoc must decode each word back to its region.
func TestLinkedLayoutDisjoint(t *testing.T) {
	g := randomCircuit(t, 42, 60)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 7, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	lp := prog.Linked()
	if lp.ImmOff < prog.GlobalWords || lp.ImmOff%SegmentWords != 0 {
		t.Fatalf("imm region at %d overlaps globals [0,%d) or is unaligned", lp.ImmOff, prog.GlobalWords)
	}
	prevEnd := uint32(lp.ImmOff + len(prog.Imms))
	for ti := range lp.Threads {
		lt := &lp.Threads[ti]
		th := &prog.Threads[ti]
		if lt.TempOff < prevEnd || lt.TempOff%SegmentWords != 0 {
			t.Fatalf("thread %d frame at %d overlaps previous region ending %d or is unaligned", ti, lt.TempOff, prevEnd)
		}
		if lt.ShadowOff != lt.TempOff+uint32(th.NumTemps) {
			t.Fatalf("thread %d shadow at %d, want temps end %d", ti, lt.ShadowOff, lt.TempOff+uint32(th.NumTemps))
		}
		prevEnd = lt.ShadowOff + uint32(th.ShadowWords)
		if int(prevEnd) > lp.StateWords {
			t.Fatalf("thread %d frame ends at %d past state end %d", ti, prevEnd, lp.StateWords)
		}
		// LinkedLoc round-trips the frame.
		if th.NumTemps > 0 {
			loc, owner, ok := lp.LinkedLoc(lt.TempOff)
			if !ok || owner != ti || loc.Space != SpaceLocal || loc.Idx != 0 {
				t.Fatalf("LinkedLoc(temp0 of %d) = %v owner=%d ok=%v", ti, loc, owner, ok)
			}
		}
		if th.ShadowWords > 0 {
			loc, owner, ok := lp.LinkedLoc(lt.ShadowOff)
			if !ok || owner != ti || loc.Space != SpaceShadow || loc.Idx != 0 {
				t.Fatalf("LinkedLoc(shadow0 of %d) = %v owner=%d ok=%v", ti, loc, owner, ok)
			}
		}
	}
	if prog.GlobalWords > 0 {
		if loc, owner, ok := lp.LinkedLoc(0); !ok || owner != -1 || loc.Space != SpaceGlobal {
			t.Fatalf("LinkedLoc(0) = %v owner=%d ok=%v", loc, owner, ok)
		}
	}
	if len(prog.Imms) > 0 {
		loc, owner, ok := lp.LinkedLoc(uint32(lp.ImmOff))
		if !ok || owner != -1 || loc.Space != SpaceImm || loc.Idx != 0 {
			t.Fatalf("LinkedLoc(imm0) = %v owner=%d ok=%v", loc, owner, ok)
		}
	}
	// Padding between globals and imms decodes to nothing.
	if lp.ImmOff > prog.GlobalWords {
		if _, _, ok := lp.LinkedLoc(uint32(prog.GlobalWords)); ok {
			t.Fatal("padding word decoded as owned")
		}
	}
}

// Shared-mode (Verilator-style) programs must link strictly 1:1 — same
// length, same opcode at every pc, no fusion — so Marks and TaskRange
// offsets stay valid on linked code.
func TestSharedLinksOneToOne(t *testing.T) {
	g := randomCircuit(t, 43, 60)
	res, err := core.Partition(g, core.Options{K: 3, Seed: 7, Model: costmodel.Default()})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(g, partSpecs(res), Config{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	lp := prog.Linked()
	if lp.Stats.Fused != 0 {
		t.Fatalf("shared program fused %d instrs; want 0", lp.Stats.Fused)
	}
	for ti := range prog.Threads {
		th, lt := &prog.Threads[ti], &lp.Threads[ti]
		if len(lt.Code) != len(th.Code) {
			t.Fatalf("thread %d: linked %d instrs, program %d", ti, len(lt.Code), len(th.Code))
		}
		for pc := range th.Code {
			if lt.Code[pc].Op != LOp(th.Code[pc].Op) {
				t.Fatalf("thread %d pc %d: opcode changed %v -> %v", ti, pc, th.Code[pc].Op, lt.Code[pc].Op)
			}
		}
	}
}

// Fusion must actually fire on a mux/compare-heavy design, and its stats
// must be internally consistent.
func TestFusionStats(t *testing.T) {
	fused := 0
	for seed := int64(20); seed < 26; seed++ {
		g := randomCircuit(t, seed, 80)
		prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		lp := prog.Linked()
		s := &lp.Stats
		if s.Linked != lp.Stats.Instrs-s.Fused {
			t.Fatalf("inconsistent stats: instrs=%d linked=%d fused=%d", s.Instrs, s.Linked, s.Fused)
		}
		perOpFusions := 0
		for _, n := range s.PerOp {
			perOpFusions += n
		}
		if s.Fused > 0 && perOpFusions == 0 {
			t.Fatalf("fused %d instrs but PerOp counts nothing", s.Fused)
		}
		if r := s.FusionRate(); r < 0 || r >= 1 {
			t.Fatalf("fusion rate %v out of range", r)
		}
		fused += s.Fused
	}
	if fused == 0 {
		t.Fatal("fusion never fired across six random circuits")
	}
}

// A narrow-only design must run allocation-free in steady state: the frame
// is pre-laid-out, the wide closures are never built, and the memory-write
// buffers are pre-sized (the capacity-reuse satellite).
func TestEngineRunNoAllocs(t *testing.T) {
	src := `
circuit Cnt {
  module Cnt {
    input  en  : UInt<1>
    input  din : UInt<24>
    output o   : UInt<24>
    reg r : UInt<24> init 1
    reg s : UInt<24> init 0
    mem m : UInt<24>[16]
    node nxt = tail(add(r, UInt<24>(1)), 1)
    r <= mux(en, nxt, r)
    write(m, bits(r, 3, 0), din, en)
    node rd = read(m, bits(nxt, 3, 0))
    s <= mux(lt(rd, din), rd, s)
    o <= s
  }
}
`
	prog := compileSrc(t, src)
	e := NewEngine(prog)
	if err := e.PokeInput("en", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.PokeInput("din", 12345); err != nil {
		t.Fatal(err)
	}
	e.Run(4) // warm up: memBuf etc. reach steady state
	allocs := testing.AllocsPerRun(50, func() { e.Run(1) })
	if allocs != 0 {
		t.Fatalf("Run allocates %v objects/cycle; want 0", allocs)
	}
}
