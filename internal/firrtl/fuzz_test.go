package firrtl

import (
	"strings"
	"testing"

	"repro/internal/bitvec"
)

// TestParserResourceBounds exercises the hostile-input guards added for
// fuzzing: every case here must produce a line:col diagnostic, never a
// panic or a pathological allocation. The negative-literal-width case
// previously panicked inside bitvec.New.
func TestParserResourceBounds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"negLitWidth", `circuit X { module X { output o : UInt<1> o <= UInt<-5>(3) } }`, "literal width must be positive"},
		{"zeroLitWidth", `circuit X { module X { output o : UInt<1> o <= UInt<0>(0) } }`, "literal width must be positive"},
		{"hugeLitWidth", `circuit X { module X { output o : UInt<1> o <= UInt<99999999>(0) } }`, "exceeds maximum"},
		{"hugeTypeWidth", `circuit X { module X { input a : UInt<99999999> } }`, "exceeds maximum"},
		{"negTypeWidth", `circuit X { module X { input a : SInt<-1> } }`, "width must be positive"},
		{"hugeMemDepth", `circuit X { module X { mem m : UInt<4>[99999999] } }`, "exceeds maximum"},
		{"zeroMemDepth", `circuit X { module X { mem m : UInt<4>[0] } }`, "depth must be positive"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

// TestParserDeepNesting verifies recursive descent refuses input nested
// past maxExprDepth instead of consuming unbounded goroutine stack.
func TestParserDeepNesting(t *testing.T) {
	var b strings.Builder
	b.WriteString("circuit X { module X { input a : UInt<1> output o : UInt<1> o <= ")
	n := maxExprDepth + 8
	for i := 0; i < n; i++ {
		b.WriteString("not(")
	}
	b.WriteString("a")
	b.WriteString(strings.Repeat(")", n))
	b.WriteString(" } }")
	_, err := Parse(b.String())
	if err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Fatalf("want nesting diagnostic, got %v", err)
	}

	// Just under the limit must still parse.
	b.Reset()
	b.WriteString("circuit X { module X { input a : UInt<1> output o : UInt<1> o <= ")
	n = maxExprDepth - 8
	for i := 0; i < n; i++ {
		b.WriteString("not(")
	}
	b.WriteString("a")
	b.WriteString(strings.Repeat(")", n))
	b.WriteString(" } }")
	if _, err := Parse(b.String()); err != nil {
		t.Fatalf("depth %d should parse: %v", n, err)
	}
}

// TestDynamicShiftHugeAmount is the regression for a shrinker-found
// reference-evaluator panic: EvalPrim cast a dynamic shift amount with
// int(v.Uint64()), which wraps negative for amounts >= 2^63 (panicking
// bitvec.Shr) and silently truncates amounts wider than 64 bits. Any
// amount at or beyond the value width must saturate: dshl/dshr shift
// everything out, signed dshr sign-fills.
func TestDynamicShiftHugeAmount(t *testing.T) {
	x := bitvec.FromUint64(8, 0x80)
	huge := bitvec.FromUint64(64, 1<<63)
	wide := bitvec.New(100)
	wide.SetBit(64, 1) // 2^64: zero in the low word
	for _, amt := range []bitvec.Vec{huge, wide} {
		if got := EvalPrim(OpDshr, UInt(8), []Type{UInt(8), UInt(amt.Width)},
			[]bitvec.Vec{x, amt}, nil); !got.IsZero() {
			t.Errorf("dshr by %v = %v, want 0", amt.Big(), got.Big())
		}
		if got := EvalPrim(OpDshl, UInt(8), []Type{UInt(8), UInt(amt.Width)},
			[]bitvec.Vec{x, amt}, nil); !got.IsZero() {
			t.Errorf("dshl by %v = %v, want 0", amt.Big(), got.Big())
		}
		got := EvalPrim(OpDshr, SInt(8), []Type{SInt(8), UInt(amt.Width)},
			[]bitvec.Vec{x, amt}, nil)
		if got.Uint64() != 0xff {
			t.Errorf("signed dshr by %v = %v, want sign fill 0xff", amt.Big(), got.Big())
		}
	}
}

// FuzzFirrtlRoundTrip feeds arbitrary text through the full front-end
// pipeline. Invariants:
//
//  1. Parse never panics; it either returns a Circuit or a diagnostic.
//  2. For any circuit that parses and checks, Print produces text that
//     parses and checks again.
//  3. Print is a fixed point: Print(Parse(Print(c))) == Print(c).
func FuzzFirrtlRoundTrip(f *testing.F) {
	f.Add(counterSrc)
	f.Add(`circuit X { module X { output o : SInt<4> o <= SInt<4>(-3) } }`)
	f.Add(`circuit T {
  module T {
    input  x : UInt<4>
    output y : UInt<4>
    mem m : UInt<4>[16]
    reg  r : UInt<4> init 7
    node rd = read(m, x)
    write(m, x, rd, UInt<1>(1))
    node t = xor(rd, r)
    r <= t
    y <= bits(cat(t, t), 3, 0)
  }
}`)
	f.Add(`circuit X { module X { input a : UInt<8> output o : UInt<32> o <= or(UInt<32>(0), asSInt(a)) } }`)
	f.Add("circuit X @ {}")
	f.Add(`circuit X { module X { output o : UInt<1> o <= UInt<-5>(3) } }`)
	f.Add("circuit `X-1C` { module `X-1C` { input `a b` : UInt<2> output o : UInt<2> o <= `a b` } }")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return // bound per-exec cost; long inputs add no new structure
		}
		c, err := Parse(src)
		if err != nil {
			return
		}
		if err := Check(c); err != nil {
			return
		}
		text := Print(c)
		c2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed form does not re-parse: %v\n--- printed ---\n%s", err, text)
		}
		if err := Check(c2); err != nil {
			t.Fatalf("printed form does not re-check: %v\n--- printed ---\n%s", err, text)
		}
		if text2 := Print(c2); text2 != text {
			t.Fatalf("print not a fixed point\n--- first ---\n%s\n--- second ---\n%s", text, text2)
		}
	})
}
