package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/costmodel"
)

// randomInputs builds one cycle of random stimulus for every input port.
func randomInputs(p *Program, rng *rand.Rand) map[string]bitvec.Vec {
	vals := make(map[string]bitvec.Vec, len(p.Inputs))
	for _, ps := range p.Inputs {
		w := bitvec.New(ps.Width)
		for j := range w.Words {
			w.Words[j] = rng.Uint64()
		}
		vals[ps.Name] = bitvec.ZeroExtend(ps.Width, w)
	}
	return vals
}

func pokeAll(t testing.TB, e *Engine, vals map[string]bitvec.Vec) {
	t.Helper()
	for name, v := range vals {
		if err := e.PokeInputVec(name, v); err != nil {
			t.Fatalf("poke %s: %v", name, err)
		}
	}
}

// compareEngines checks two engines agree on every register, output, and
// memory word.
func compareEngines(t *testing.T, a, b *Engine, tag string) {
	t.Helper()
	p := a.Program()
	for _, r := range p.Regs {
		av, _ := a.PeekReg(r.Name)
		bv, err := b.PeekReg(r.Name)
		if err != nil || !bitvec.Eq(av, bv) {
			t.Fatalf("%s: reg %s: %v vs %v (err %v)", tag, r.Name, av, bv, err)
		}
	}
	for _, o := range p.Outputs {
		av, _ := a.PeekOutputVec(o.Name)
		bv, err := b.PeekOutputVec(o.Name)
		if err != nil || !bitvec.Eq(av, bv) {
			t.Fatalf("%s: out %s: %v vs %v (err %v)", tag, o.Name, av, bv, err)
		}
	}
	for _, m := range p.Mems {
		for addr := 0; addr < m.Depth; addr++ {
			av, _ := a.PeekMemVec(m.Name, addr)
			bv, err := b.PeekMemVec(m.Name, addr)
			if err != nil || !bitvec.Eq(av, bv) {
				t.Fatalf("%s: mem %s[%d]: %v vs %v (err %v)", tag, m.Name, addr, av, bv, err)
			}
		}
	}
}

// TestSnapshotRoundTrip: run k cycles, checkpoint through the full wire
// encoding, restore onto a fresh engine, run k more on both — the restored
// engine must stay bit-identical to the uninterrupted one, serial and
// partitioned.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(60); seed < 64; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomCircuit(t, seed, 70)
			for _, k := range []int{1, 3} {
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
				control := NewEngine(prog)
				rng := rand.New(rand.NewSource(seed))
				const half = 8
				for cyc := 0; cyc < half; cyc++ {
					pokeAll(t, control, randomInputs(prog, rng))
					control.Run(1)
				}
				snap := control.Snapshot()
				blob := snap.Encode()
				snap2, err := DecodeSnapshot(blob)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				restored := NewEngine(prog)
				if err := restored.RestoreSnapshot(snap2); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if restored.Cycles() != control.Cycles() {
					t.Fatalf("restored cycles %d, control %d", restored.Cycles(), control.Cycles())
				}
				compareEngines(t, control, restored, fmt.Sprintf("k=%d post-restore", k))
				if a, b := control.StateHash(), restored.StateHash(); a != b {
					t.Fatalf("k=%d: state hash %016x vs %016x after restore", k, a, b)
				}
				for cyc := 0; cyc < half; cyc++ {
					vals := randomInputs(prog, rng)
					pokeAll(t, control, vals)
					pokeAll(t, restored, vals)
					control.Run(1)
					restored.Run(1)
					compareEngines(t, control, restored, fmt.Sprintf("k=%d cycle=%d", k, cyc))
				}
			}
		})
	}
}

// TestSnapshotBatchLane: a batch lane's checkpoint restores onto a private
// engine AND onto a different lane of a different batch engine, both
// bit-identical to the source lane from then on. This is the service's
// batched-session migration path.
func TestSnapshotBatchLane(t *testing.T) {
	g := randomCircuit(t, 77, 70)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	const lanes = 5
	be, err := NewBatchEngine(prog, lanes)
	if err != nil {
		t.Fatal(err)
	}
	rngs := make([]*rand.Rand, lanes)
	for l := range rngs {
		rngs[l] = rand.New(rand.NewSource(77*100 + int64(l)))
	}
	for cyc := 0; cyc < 8; cyc++ {
		for l := 0; l < lanes; l++ {
			for name, v := range randomInputs(prog, rngs[l]) {
				if err := be.PokeVec(l, name, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		be.Run(1)
	}
	const src = 2
	snap, err := be.SnapshotLane(src)
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}

	// Private-engine restore.
	priv := NewEngine(prog)
	if err := priv.RestoreSnapshot(snap2); err != nil {
		t.Fatal(err)
	}
	// Cross-lane restore into a second batch engine.
	be2, err := NewBatchEngine(prog, 3)
	if err != nil {
		t.Fatal(err)
	}
	const dst = 1
	if err := be2.RestoreLane(dst, snap2); err != nil {
		t.Fatal(err)
	}
	if be2.Cycles(dst) != be.Cycles(src) {
		t.Fatalf("restored lane cycles %d, source %d", be2.Cycles(dst), be.Cycles(src))
	}
	srcHash, err := be.StateHashLane(src)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := be2.StateHashLane(dst); h != srcHash {
		t.Fatalf("restored lane hash %016x, source %016x", h, srcHash)
	}
	if h := priv.StateHash(); h != srcHash {
		t.Fatalf("restored engine hash %016x, source %016x", h, srcHash)
	}

	// All three must evolve identically from here.
	rng := rand.New(rand.NewSource(999))
	for cyc := 0; cyc < 8; cyc++ {
		vals := randomInputs(prog, rng)
		for name, v := range vals {
			if err := be.PokeVec(src, name, v); err != nil {
				t.Fatal(err)
			}
			if err := be2.PokeVec(dst, name, v); err != nil {
				t.Fatal(err)
			}
		}
		pokeAll(t, priv, vals)
		be.Run(1)
		be2.Run(1)
		priv.Run(1)
		h0, _ := be.StateHashLane(src)
		h1, _ := be2.StateHashLane(dst)
		if h0 != h1 || h0 != priv.StateHash() {
			t.Fatalf("cycle %d: hashes diverged: lane %016x, restored lane %016x, engine %016x",
				cyc, h0, h1, priv.StateHash())
		}
	}
}

// TestSnapshotGuards: every guard fires — wrong version, wrong program,
// truncated blob, corrupted byte, trailing garbage.
func TestSnapshotGuards(t *testing.T) {
	g := randomCircuit(t, 88, 60)
	prog, err := Compile(g, SerialSpec(g), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	e.Run(3)
	snap := e.Snapshot()

	// Version gate.
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if err := NewEngine(prog).RestoreSnapshot(&bad); err == nil {
		t.Fatal("restore accepted a future layout version")
	}
	if _, err := DecodeSnapshot(bad.Encode()); err == nil {
		t.Fatal("decode accepted a future layout version")
	}

	// Fingerprint gate: a different circuit's engine must refuse.
	g2 := randomCircuit(t, 89, 60)
	prog2, err := Compile(g2, SerialSpec(g2), Config{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := NewEngine(prog2).RestoreSnapshot(snap); err == nil {
		t.Fatal("restore accepted a snapshot from a different program")
	}

	// Truncation and corruption die at decode (checksum), not at restore.
	blob := snap.Encode()
	if _, err := DecodeSnapshot(blob[:len(blob)-9]); err == nil {
		t.Fatal("decode accepted a truncated blob")
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeSnapshot(flipped); err == nil {
		t.Fatal("decode accepted a corrupted blob")
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), blob...), 0xff)); err == nil {
		t.Fatal("decode accepted trailing garbage")
	}

}

// TestEncodeProgramRoundTrip: a compiled program survives the peer-fetch
// wire format — identical fingerprint, working name lookups, and an engine
// over the decoded program bit-identical to one over the original.
func TestEncodeProgramRoundTrip(t *testing.T) {
	for seed := int64(60); seed < 63; seed++ {
		g := randomCircuit(t, seed, 70)
		res, err := core.Partition(g, core.Options{K: 3, Seed: seed, Model: costmodel.Default(), Epsilon: 0.1})
		var specs []PartSpec
		if err != nil {
			specs = SerialSpec(g)
		} else {
			specs = partSpecs(res)
		}
		prog, err := Compile(g, specs, Config{OptLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		prog2, err := DecodeProgram(blob)
		if err != nil {
			t.Fatal(err)
		}
		if prog2.Fingerprint() != prog.Fingerprint() {
			t.Fatalf("seed %d: fingerprint changed across the wire", seed)
		}
		for _, ps := range prog.Inputs {
			if _, ok := prog2.Input(ps.Name); !ok {
				t.Fatalf("seed %d: decoded program lost input %q", seed, ps.Name)
			}
		}
		for _, r := range prog.Regs {
			if _, ok := prog2.Reg(r.Name); !ok {
				t.Fatalf("seed %d: decoded program lost register %q", seed, r.Name)
			}
		}
		a, b := NewEngine(prog), NewEngine(prog2)
		rng := rand.New(rand.NewSource(seed))
		for cyc := 0; cyc < 10; cyc++ {
			vals := randomInputs(prog, rng)
			pokeAll(t, a, vals)
			pokeAll(t, b, vals)
			a.Run(1)
			b.Run(1)
			if a.StateHash() != b.StateHash() {
				t.Fatalf("seed %d cycle %d: decoded program diverged", seed, cyc)
			}
		}
		// Corrupted wire blobs are rejected.
		if len(blob) > 10 {
			bad := append([]byte(nil), blob...)
			bad[len(bad)-5] ^= 0x01
			if _, err := DecodeProgram(bad); err == nil {
				t.Fatalf("seed %d: decode accepted a corrupted program blob", seed)
			}
		}
	}
}

// forgeSrc has one of each kind of restorable state: a narrow input and
// register, a wide input and register, a narrow and a wide memory, and an
// immediate (the 5) the next-state logic reads.
const forgeSrc = `
circuit F {
  module F {
    input a  : UInt<8>
    input w  : UInt<70>
    input en : UInt<1>
    output o : UInt<8>
    output ow : UInt<70>
    output om : UInt<16>
    output owm : UInt<70>
    reg r : UInt<8> init 0
    reg rw : UInt<70> init 0
    mem m : UInt<16>[4]
    mem mw : UInt<70>[4]
    r <= tail(add(a, UInt<8>(5)), 1)
    rw <= xor(rw, w)
    write(m, bits(a, 1, 0), cat(a, a), en)
    write(mw, bits(a, 1, 0), w, en)
    o <= r
    ow <= rw
    om <= read(m, bits(a, 1, 0))
    owm <= read(mw, bits(a, 1, 0))
  }
}
`

// TestSnapshotRejectsForgedState: a snapshot whose fingerprint and
// dimensions match but whose contents no run of the program can produce
// is refused by both restore paths — a rewritten immediate, a narrow input
// or register word above its width, a malformed wide value, and a memory
// element above its width. Each forgery goes through the wire encoding
// first, as client bytes do; the decoder accepts it, so the restore check
// is what stands between it and the executors.
func TestSnapshotRejectsForgedState(t *testing.T) {
	prog := compileSrc(t, forgeSrc)
	lp := prog.Linked()
	e := NewEngine(prog)
	for cyc, v := range []uint64{1, 2, 3, 0x81} {
		pokeAll(t, e, map[string]bitvec.Vec{
			"a": bitvec.FromUint64(8, v), "en": bitvec.FromUint64(1, 1),
			"w": bitvec.ZeroExtend(70, bitvec.Vec{Width: 128, Words: []uint64{v, 0x3f}}),
		})
		e.Run(1)
		if cyc == 1 { // o shows r, which latched a+5 from the previous cycle
			if got, _ := e.PeekOutput("o"); got != 6 {
				t.Fatalf("o = %d one cycle after a=1, want 6", got)
			}
		}
	}
	snap := e.Snapshot()

	imm := -1
	for i, v := range prog.Imms {
		if v == 5 {
			imm = i
		}
	}
	if imm < 0 {
		t.Fatalf("program has no immediate 5: %v", prog.Imms)
	}
	slot := func(name string) int {
		if ps, ok := prog.Input(name); ok {
			return int(ps.Slot)
		}
		rs, ok := prog.Reg(name)
		if !ok {
			t.Fatalf("no input or register %q", name)
		}
		return int(rs.Slot)
	}
	memIdx := func(name string) int {
		for i, m := range prog.Mems {
			if m.Name == name {
				return i
			}
		}
		t.Fatalf("no memory %q", name)
		return -1
	}
	m, mw := memIdx("m"), memIdx("mw")
	if prog.Mems[m].Wide || !prog.Mems[mw].Wide {
		t.Fatalf("memory kinds: m wide=%v, mw wide=%v", prog.Mems[m].Wide, prog.Mems[mw].Wide)
	}

	cases := []struct {
		name   string
		forge  func(s *Snapshot)
		reason string
	}{
		{"immediate rewritten", func(s *Snapshot) { s.Words[lp.ImmOff+imm] = 100 }, "immediate"},
		{"narrow register above width", func(s *Snapshot) { s.Words[slot("r")] = 0xffff }, "register"},
		{"narrow input above width", func(s *Snapshot) { s.Words[slot("a")] = 0x100 }, "input"},
		{"wide slot with no words", func(s *Snapshot) { s.Wide[slot("rw")] = bitvec.Vec{Width: 70} }, "wide slot"},
		{"wide slot with an extra word", func(s *Snapshot) {
			s.Wide[slot("rw")] = bitvec.Vec{Width: 70, Words: make([]uint64, 3)}
		}, "wide slot"},
		{"wide slot of another width", func(s *Snapshot) { s.Wide[slot("w")] = bitvec.New(71) }, "wide slot"},
		{"wide slot bits above width", func(s *Snapshot) { s.Wide[slot("rw")].Words[1] |= 1 << 6 }, "wide slot"},
		{"narrow memory element above width", func(s *Snapshot) { s.Mems[m][1] = 0x10000 }, "mem"},
		{"wide memory element above width", func(s *Snapshot) { s.WideMems[mw][1].Words[1] |= 1 << 63 }, "mem"},
		{"wide memory element of another width", func(s *Snapshot) { s.WideMems[mw][2] = bitvec.New(64) }, "mem"},
	}
	decode := func(s *Snapshot) *Snapshot {
		t.Helper()
		d, err := DecodeSnapshot(s.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return d
	}
	restoreBoth := func(s *Snapshot) (engErr, laneErr error) {
		t.Helper()
		be, err := NewBatchEngine(prog, 2)
		if err != nil {
			t.Fatal(err)
		}
		return NewEngine(prog).RestoreSnapshot(s), be.RestoreLane(1, s)
	}

	// The genuine snapshot restores on both paths and resumes identically.
	if engErr, laneErr := restoreBoth(decode(snap)); engErr != nil || laneErr != nil {
		t.Fatalf("genuine snapshot refused: engine %v, lane %v", engErr, laneErr)
	}
	for _, tc := range cases {
		forged := decode(snap)
		tc.forge(forged)
		forged = decode(forged)
		engErr, laneErr := restoreBoth(forged)
		for path, err := range map[string]error{"RestoreSnapshot": engErr, "RestoreLane": laneErr} {
			if err == nil {
				t.Errorf("%s: %s accepted a forged snapshot", tc.name, path)
			} else if !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("%s: %s refused for the wrong reason: %v", tc.name, path, err)
			}
		}
	}
}

// FuzzDecodeSnapshot feeds mutated snapshot blobs through the whole restore
// path: decode, restore onto a fresh engine of the seed program, run one
// cycle. The fuzzer mutates the body and the harness appends a fresh
// checksum, so mutations reach the parser and the restore check instead of
// dying at the checksum. Nothing may panic, an accepted blob must re-encode
// to the same bytes, and a restored engine must snapshot back to them.
func FuzzDecodeSnapshot(f *testing.F) {
	prog := compileSrc(f, forgeSrc)
	e := NewEngine(prog)
	for cyc := 0; cyc < 4; cyc++ {
		blob := e.Snapshot().Encode()
		f.Add(blob[:len(blob)-8])
		pokeAll(f, e, map[string]bitvec.Vec{
			"a": bitvec.FromUint64(8, uint64(cyc*37+1)), "en": bitvec.FromUint64(1, 1),
			"w": bitvec.Vec{Width: 70, Words: []uint64{^uint64(cyc), 0x2a}},
		})
		e.Run(1)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), checksum(body))
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if got := s.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("decoded snapshot re-encodes differently:\n got %x\nwant %x", got, data)
		}
		r := NewEngine(prog)
		if err := r.RestoreSnapshot(s); err != nil {
			return
		}
		if got := r.Snapshot().Encode(); !bytes.Equal(got, data) {
			t.Fatalf("restored engine snapshots differently:\n got %x\nwant %x", got, data)
		}
		r.Run(1)
	})
}
