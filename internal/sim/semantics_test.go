package sim

import "testing"

// TestEvalOpHazards pins EvalOp — the translation validator's and the
// constant folder's only route to opcode semantics — on the cases where a
// naive Go expression traps or differs from the hardware semantics: division
// by zero, the MinInt64 / -1 overflow, shift counts of 64 and more, sign
// extension at its degenerate widths, and the ops whose mask truncates,
// compares or is ignored. Every expected value is computed by hand.
func TestEvalOpHazards(t *testing.T) {
	const (
		all    = ^uint64(0)
		minI64 = uint64(1) << 63
		neg1   = all // -1 as a two's-complement word
	)
	cases := []struct {
		name    string
		op      OpCode
		aux     uint32
		mask    uint64
		a, b, c uint64
		want    uint64
	}{
		{"div by zero", OpDiv, 0, 0xff, 7, 0, 0, 0},
		{"div", OpDiv, 0, 0xff, 7, 2, 0, 3},
		{"rem by zero keeps a", OpRem, 0, 0xff, 7, 0, 0, 7},
		{"rem by zero masks a", OpRem, 0, 0xff, 0x1ff, 0, 0, 0xff},
		{"rem", OpRem, 0, 0xff, 7, 4, 0, 3},
		{"sdiv by zero", OpSDiv, 0, all, 5, 0, 0, 0},
		{"sdiv minint by -1 wraps", OpSDiv, 0, all, minI64, neg1, 0, minI64},
		{"sdiv minint by -1 masked", OpSDiv, 0, 0xff, minI64, neg1, 0, 0},
		{"sdiv by -1 negates", OpSDiv, 0, 0xff, 5, neg1, 0, 0xfb},
		{"sdiv rounds toward zero", OpSDiv, 0, 0xff, uint64(0xfffffffffffffff9), 2, 0, 0xfd}, // -7/2 = -3
		{"srem by -1", OpSRem, 0, all, 7, neg1, 0, 0},
		{"srem minint by -1", OpSRem, 0, all, minI64, neg1, 0, 0},
		{"srem by zero keeps a", OpSRem, 0, 0xff, uint64(0xfffffffffffffffb), 0, 0, 0xfb}, // -5
		{"srem sign follows a", OpSRem, 0, 0xff, uint64(0xfffffffffffffff9), 2, 0, 0xff},  // -7%2 = -1
		{"dshl by 63", OpDshl, 0, all, 1, 63, 0, minI64},
		{"dshl by 64", OpDshl, 0, all, 1, 64, 0, 0},
		{"dshl by 1000", OpDshl, 0, all, all, 1000, 0, 0},
		{"dshl masks", OpDshl, 0, 0xff, 0xab, 4, 0, 0xb0},
		{"dshr by 63", OpDshr, 0, all, all, 63, 0, 1},
		{"dshr by 64", OpDshr, 0, all, all, 64, 0, 0},
		{"dshr by 1000", OpDshr, 0, all, all, 1000, 0, 0},
		{"dsar by 63", OpDsar, 0, all, minI64, 63, 0, all},
		{"dsar by 64 saturates", OpDsar, 0, all, minI64, 64, 0, all},
		{"dsar by 1000 positive", OpDsar, 0, all, 1 << 62, 1000, 0, 0},
		{"dsar by 1000 masked", OpDsar, 0, 0xff, minI64, 1000, 0, 0xff},
		{"sext width 0 is identity", OpSext, 0, 0xff, 0x80, 0, 0, 0x80},
		{"sext width 1 set", OpSext, 1, 0x1, 1, 0, 0, all},
		{"sext width 1 clear", OpSext, 1, 0x1, 2, 0, 0, 0},
		{"sext width 8 ignores mask", OpSext, 8, 0xff, 0x80, 0, 0, 0xffffffffffffff80},
		{"sext width 64 is identity", OpSext, 64, all, minI64 | 5, 0, 0, minI64 | 5},
		{"andr all ones", OpAndr, 0, 0xff, 0xff, 0, 0, 1},
		{"andr one zero bit", OpAndr, 0, 0xff, 0x7f, 0, 0, 0},
		{"andr compares against the mask", OpAndr, 0, 0x0f, 0xff, 0, 0, 0},
		{"andr narrow mask", OpAndr, 0, 0x0f, 0x0f, 0, 0, 1},
		{"cat masks", OpCat, 4, 0xff, 0x1f, 0x3, 0, 0xf3},
		{"cat", OpCat, 8, 0xffff, 0xab, 0xcd, 0, 0xabcd},
		{"shl masks", OpShl, 4, 0xff, 0xab, 0, 0, 0xb0},
		{"neg masks", OpNeg, 0, 0xff, 1, 0, 0, 0xff},
		{"neg zero", OpNeg, 0, 0xff, 0, 0, 0, 0},
		{"neg full width", OpNeg, 0, all, 1, 0, 0, all},
		{"compare ignores mask", OpLt, 0, 0, 1, 2, 0, 1},
		{"signed compare", OpSLt, 0, 1, all, 0, 0, 1},
		{"xorr", OpXorr, 0, 1, 0b1011, 0, 0, 1},
		{"mux true arm masked", OpMux, 0, 0xf, 1, 0xab, 0xcd, 0xb},
		{"mux false arm masked", OpMux, 0, 0xf, 0, 0xab, 0xcd, 0xd},
	}
	for _, tc := range cases {
		got, ok := EvalOp(tc.op, tc.aux, tc.mask, tc.a, tc.b, tc.c)
		if !ok {
			t.Errorf("%s: EvalOp(%v) refused a pure op", tc.name, tc.op)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: EvalOp(%v, aux=%d, mask=%#x, %#x, %#x, %#x) = %#x, want %#x",
				tc.name, tc.op, tc.aux, tc.mask, tc.a, tc.b, tc.c, got, tc.want)
		}
	}
	for _, op := range []OpCode{OpNop, OpWide, OpMemRd, OpMemWr, numOpCodes} {
		if _, ok := EvalOp(op, 0, all, 1, 2, 3); ok {
			t.Errorf("EvalOp(%v) folded an op with no pure narrow semantics", op)
		}
	}
}
