package sim

import (
	"testing"

	"repro/internal/bitvec"
)

// wideEdgeEngines compiles src and returns the unfused and the fused
// linked engine, so each edge case is asserted on both streams alike.
func wideEdgeEngines(t *testing.T, src string) (unfused, linked *Engine) {
	t.Helper()
	prog := compileSrc(t, src)
	return NewUnfusedEngine(prog), NewEngine(prog)
}

// A narrow memory addressed by a wide value goes through evalWide's
// wkMemRd/wkMemWr "narrow memory reached via the wide path" branches:
// reads must come back as narrow words, writes must buffer into the narrow
// memBuf, the enable must gate, and out-of-range addresses must read zero
// and drop the write at commit.
func TestWideAddrNarrowMemory(t *testing.T) {
	src := `
circuit W {
  module W {
    input a  : UInt<70>
    input d  : UInt<16>
    input en : UInt<1>
    output o : UInt<16>
    mem m : UInt<16>[8]
    node rd = read(m, a)
    write(m, a, d, en)
    o <= rd
  }
}
`
	unfused, linked := wideEdgeEngines(t, src)
	addr := func(v uint64) bitvec.Vec { return bitvec.FromUint64(70, v) }
	step := func(a bitvec.Vec, d, en uint64) {
		t.Helper()
		for _, e := range []*Engine{unfused, linked} {
			if err := e.PokeInputVec("a", a); err != nil {
				t.Fatal(err)
			}
			if err := e.PokeInput("d", d); err != nil {
				t.Fatal(err)
			}
			if err := e.PokeInput("en", en); err != nil {
				t.Fatal(err)
			}
			e.Run(1)
		}
	}
	check := func(want uint64, what string) {
		t.Helper()
		uv, err := unfused.PeekOutput("o")
		if err != nil {
			t.Fatal(err)
		}
		lv, err := linked.PeekOutput("o")
		if err != nil {
			t.Fatal(err)
		}
		if uv != want || lv != want {
			t.Fatalf("%s: unfused=%#x linked=%#x, want %#x", what, uv, lv, want)
		}
	}

	step(addr(3), 0x1234, 1) // write m[3]=0x1234
	step(addr(3), 0, 0)      // en=0: write gated off
	check(0x1234, "read-back after gated write")

	// An out-of-range address through the wide path reads zero and its
	// write is buffered but dropped at commit. (Addresses index by their low
	// 64 bits, so the OOB value must exceed the depth there.)
	step(addr(100), 0xffff, 1)
	check(0, "wide OOB read")
	step(addr(3), 0, 0)
	check(0x1234, "m[3] intact after OOB write")

	// In-range overwrite through the wide path still lands.
	step(addr(3), 0xbeef, 1)
	step(addr(3), 0, 0)
	check(0xbeef, "wide-path overwrite")
}

// OpMemRd past the end of a narrow memory returns zero on both the
// unfused and the fused linked stream, and the matching OpMemWr is dropped
// at commit.
func TestNarrowMemOutOfRangeBothModes(t *testing.T) {
	src := `
circuit N {
  module N {
    input a  : UInt<8>
    input d  : UInt<16>
    input en : UInt<1>
    output o : UInt<16>
    mem m : UInt<16>[4]
    node rd = read(m, a)
    write(m, a, d, en)
    o <= rd
  }
}
`
	unfused, linked := wideEdgeEngines(t, src)
	step := func(a, d, en uint64) {
		t.Helper()
		for _, e := range []*Engine{unfused, linked} {
			for name, v := range map[string]uint64{"a": a, "d": d, "en": en} {
				if err := e.PokeInput(name, v); err != nil {
					t.Fatal(err)
				}
			}
			e.Run(1)
		}
	}
	check := func(want uint64, what string) {
		t.Helper()
		uv, _ := unfused.PeekOutput("o")
		lv, _ := linked.PeekOutput("o")
		if uv != want || lv != want {
			t.Fatalf("%s: unfused=%#x linked=%#x, want %#x", what, uv, lv, want)
		}
	}

	step(2, 0x5a5a, 1) // write m[2]
	step(2, 0, 0)
	check(0x5a5a, "in-range read")

	step(200, 0x1111, 1) // address far past depth 4
	check(0, "OOB read returns zero")
	step(2, 0, 0)
	check(0x5a5a, "m[2] intact after OOB write")
}
