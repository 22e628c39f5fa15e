package repcut_test

import (
	"strings"
	"testing"

	repcut "repro"
	"repro/internal/codegen"
)

const backendSrc = `
circuit Tiny {
  module Tiny {
    input  in  : UInt<8>
    output out : UInt<8>
    reg r : UInt<8> init 0
    r <= tail(add(r, in), 1)
    out <= r
  }
}
`

// ParseBackend accepts exactly the backends String names, and an unknown
// value (including the removed closure interpreter) names the valid ones.
func TestParseBackend(t *testing.T) {
	for _, b := range []repcut.Backend{repcut.BackendLinked, repcut.BackendNative} {
		got, err := repcut.ParseBackend(b.String())
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	if got, err := repcut.ParseBackend(""); err != nil || got != repcut.BackendLinked {
		t.Fatalf("ParseBackend(\"\") = %v, %v; want linked", got, err)
	}
	_, err := repcut.ParseBackend("interp")
	if err == nil || !strings.Contains(err.Error(), "linked") || !strings.Contains(err.Error(), "native") {
		t.Fatalf("ParseBackend(\"interp\") error %v does not name linked and native", err)
	}
}

func TestBackendNativeFallbackAndRun(t *testing.T) {
	c, err := repcut.ParseCircuit(backendSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := repcut.Elaborate(c)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := d.CompileProgram(repcut.Options{Threads: 1, Backend: repcut.BackendNative, Artifacts: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := comp.NewSimulator()
	if err := codegen.Supported(); err != nil {
		if s.Backend != repcut.BackendLinked || comp.NativeErr == nil {
			t.Fatalf("expected linked fallback, got %v (nativeErr %v)", s.Backend, comp.NativeErr)
		}
		return
	}
	if s.Backend != repcut.BackendNative {
		t.Fatalf("backend %v, nativeErr %v", s.Backend, comp.NativeErr)
	}
	lin, _ := d.CompileParallel(repcut.Options{Threads: 1})
	for i := 0; i < 50; i++ {
		s.PokeInput("in", uint64(i*37))
		lin.PokeInput("in", uint64(i*37))
		s.Run(1)
		lin.Run(1)
	}
	a, _ := s.PeekOutput("out")
	b, _ := lin.PeekOutput("out")
	if a != b {
		t.Fatalf("native %d linked %d", a, b)
	}
}
