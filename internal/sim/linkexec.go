package sim

import (
	"fmt"
	"math/bits"
)

// evalLinked executes one linked instruction stream; it is the only narrow
// executor of the Engine and TaskEngine. Every operand is a single indexed
// load or store into the engine's unified state slice — no per-operand
// closure, no RefTag switch — and the fused superinstructions from fuse.go
// each retire two (or, for copy runs, many) compiled instructions per
// dispatch. An unfused stream (NewUnfusedEngine) runs only the base cases,
// one per compiled instruction; link_test.go checks both forms against the
// graph-level Reference, and EvalOp runs single base ops through here for
// the constant folder and the translation validator.
func evalLinked(code []LInstr, st []uint64, p *Program, lp *LinkedProgram, gs *globalState, tc *threadCtx) {
	// Closures for the boxed wide path are built lazily: threads without
	// wide nodes must not allocate per cycle.
	var wval func(uint32) uint64
	var wstore func(uint32, uint64)

	for i := range code {
		in := &code[i]
		switch in.Op {
		case LOp(OpNop):
		case LOp(OpCopy):
			st[in.Dst] = st[in.A] & in.Mask
		case LOp(OpAdd):
			st[in.Dst] = (st[in.A] + st[in.B]) & in.Mask
		case LOp(OpSub):
			st[in.Dst] = (st[in.A] - st[in.B]) & in.Mask
		case LOp(OpMul):
			st[in.Dst] = (st[in.A] * st[in.B]) & in.Mask
		case LOp(OpDiv):
			b := st[in.B]
			if b == 0 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] / b) & in.Mask
			}
		case LOp(OpRem):
			b := st[in.B]
			if b == 0 {
				st[in.Dst] = st[in.A] & in.Mask
			} else {
				st[in.Dst] = (st[in.A] % b) & in.Mask
			}
		case LOp(OpSDiv):
			a, b := int64(st[in.A]), int64(st[in.B])
			switch {
			case b == 0:
				st[in.Dst] = 0
			case b == -1:
				st[in.Dst] = uint64(-a) & in.Mask // avoids MinInt64 / -1 trap
			default:
				st[in.Dst] = uint64(a/b) & in.Mask
			}
		case LOp(OpSRem):
			a, b := int64(st[in.A]), int64(st[in.B])
			switch {
			case b == 0:
				st[in.Dst] = uint64(a) & in.Mask
			case b == -1:
				st[in.Dst] = 0
			default:
				st[in.Dst] = uint64(a%b) & in.Mask
			}
		case LOp(OpLt):
			st[in.Dst] = b2u(st[in.A] < st[in.B])
		case LOp(OpLeq):
			st[in.Dst] = b2u(st[in.A] <= st[in.B])
		case LOp(OpGt):
			st[in.Dst] = b2u(st[in.A] > st[in.B])
		case LOp(OpGeq):
			st[in.Dst] = b2u(st[in.A] >= st[in.B])
		case LOp(OpSLt):
			st[in.Dst] = b2u(int64(st[in.A]) < int64(st[in.B]))
		case LOp(OpSLeq):
			st[in.Dst] = b2u(int64(st[in.A]) <= int64(st[in.B]))
		case LOp(OpSGt):
			st[in.Dst] = b2u(int64(st[in.A]) > int64(st[in.B]))
		case LOp(OpSGeq):
			st[in.Dst] = b2u(int64(st[in.A]) >= int64(st[in.B]))
		case LOp(OpEq):
			st[in.Dst] = b2u(st[in.A] == st[in.B])
		case LOp(OpNeq):
			st[in.Dst] = b2u(st[in.A] != st[in.B])
		case LOp(OpAnd):
			st[in.Dst] = (st[in.A] & st[in.B]) & in.Mask
		case LOp(OpOr):
			st[in.Dst] = (st[in.A] | st[in.B]) & in.Mask
		case LOp(OpXor):
			st[in.Dst] = (st[in.A] ^ st[in.B]) & in.Mask
		case LOp(OpNot):
			st[in.Dst] = ^st[in.A] & in.Mask
		case LOp(OpNeg):
			st[in.Dst] = (-st[in.A]) & in.Mask
		case LOp(OpAndr):
			st[in.Dst] = b2u(st[in.A] == in.Mask)
		case LOp(OpOrr):
			st[in.Dst] = b2u(st[in.A] != 0)
		case LOp(OpXorr):
			st[in.Dst] = uint64(bits.OnesCount64(st[in.A]) & 1)
		case LOp(OpCat):
			st[in.Dst] = (st[in.A]<<in.Aux | st[in.B]) & in.Mask
		case LOp(OpShl):
			st[in.Dst] = (st[in.A] << in.Aux) & in.Mask
		case LOp(OpShr):
			st[in.Dst] = (st[in.A] >> in.Aux) & in.Mask
		case LOp(OpSar):
			st[in.Dst] = uint64(int64(st[in.A])>>in.Aux) & in.Mask
		case LOp(OpDshl):
			n := st[in.B]
			if n >= 64 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] << n) & in.Mask
			}
		case LOp(OpDshr):
			n := st[in.B]
			if n >= 64 {
				st[in.Dst] = 0
			} else {
				st[in.Dst] = (st[in.A] >> n) & in.Mask
			}
		case LOp(OpDsar):
			n := st[in.B]
			if n > 63 {
				n = 63
			}
			st[in.Dst] = uint64(int64(st[in.A])>>n) & in.Mask
		case LOp(OpMux):
			if st[in.A] != 0 {
				st[in.Dst] = st[in.B] & in.Mask
			} else {
				st[in.Dst] = st[in.C] & in.Mask
			}
		case LOp(OpSext):
			st[in.Dst] = signExtend64(st[in.A], in.Aux)
		case LOp(OpMemRd):
			mem := gs.mems[in.Aux]
			addr := st[in.A]
			if addr < uint64(len(mem)) {
				st[in.Dst] = mem[addr] & in.Mask
			} else {
				st[in.Dst] = 0
			}
		case LOp(OpMemWr):
			if st[in.C] != 0 {
				tc.memBuf = append(tc.memBuf, memWrite{
					mem: in.Aux, addr: st[in.A], data: st[in.B] & in.Mask,
				})
			}
		case LOp(OpWide):
			if wval == nil {
				wval = func(r uint32) uint64 { return st[r] }
				wstore = func(r uint32, v uint64) { st[r] = v }
			}
			evalWide(&lp.WideNodes[in.Aux], p, gs, tc, wval, wstore)

		// Fused superinstructions. Ext variants sign-extend inline from
		// the widths packed into Aux (0 = operand used as-is), exactly as
		// the absorbed OpSext producer would have.
		case lLtExt:
			st[in.Dst] = b2u(signExtend64(st[in.A], in.Aux&0xff) < signExtend64(st[in.B], in.Aux>>8))
		case lLeqExt:
			st[in.Dst] = b2u(signExtend64(st[in.A], in.Aux&0xff) <= signExtend64(st[in.B], in.Aux>>8))
		case lGtExt:
			st[in.Dst] = b2u(signExtend64(st[in.A], in.Aux&0xff) > signExtend64(st[in.B], in.Aux>>8))
		case lGeqExt:
			st[in.Dst] = b2u(signExtend64(st[in.A], in.Aux&0xff) >= signExtend64(st[in.B], in.Aux>>8))
		case lSLtExt:
			st[in.Dst] = b2u(int64(signExtend64(st[in.A], in.Aux&0xff)) < int64(signExtend64(st[in.B], in.Aux>>8)))
		case lSLeqExt:
			st[in.Dst] = b2u(int64(signExtend64(st[in.A], in.Aux&0xff)) <= int64(signExtend64(st[in.B], in.Aux>>8)))
		case lSGtExt:
			st[in.Dst] = b2u(int64(signExtend64(st[in.A], in.Aux&0xff)) > int64(signExtend64(st[in.B], in.Aux>>8)))
		case lSGeqExt:
			st[in.Dst] = b2u(int64(signExtend64(st[in.A], in.Aux&0xff)) >= int64(signExtend64(st[in.B], in.Aux>>8)))
		case lEqExt:
			st[in.Dst] = b2u(signExtend64(st[in.A], in.Aux&0xff) == signExtend64(st[in.B], in.Aux>>8))
		case lNeqExt:
			st[in.Dst] = b2u(signExtend64(st[in.A], in.Aux&0xff) != signExtend64(st[in.B], in.Aux>>8))
		case lLtMux:
			st[in.Dst] = pick(signExtend64(st[in.A], in.Aux&0xff) < signExtend64(st[in.B], in.Aux>>8), st, in)
		case lLeqMux:
			st[in.Dst] = pick(signExtend64(st[in.A], in.Aux&0xff) <= signExtend64(st[in.B], in.Aux>>8), st, in)
		case lGtMux:
			st[in.Dst] = pick(signExtend64(st[in.A], in.Aux&0xff) > signExtend64(st[in.B], in.Aux>>8), st, in)
		case lGeqMux:
			st[in.Dst] = pick(signExtend64(st[in.A], in.Aux&0xff) >= signExtend64(st[in.B], in.Aux>>8), st, in)
		case lSLtMux:
			st[in.Dst] = pick(int64(signExtend64(st[in.A], in.Aux&0xff)) < int64(signExtend64(st[in.B], in.Aux>>8)), st, in)
		case lSLeqMux:
			st[in.Dst] = pick(int64(signExtend64(st[in.A], in.Aux&0xff)) <= int64(signExtend64(st[in.B], in.Aux>>8)), st, in)
		case lSGtMux:
			st[in.Dst] = pick(int64(signExtend64(st[in.A], in.Aux&0xff)) > int64(signExtend64(st[in.B], in.Aux>>8)), st, in)
		case lSGeqMux:
			st[in.Dst] = pick(int64(signExtend64(st[in.A], in.Aux&0xff)) >= int64(signExtend64(st[in.B], in.Aux>>8)), st, in)
		case lEqMux:
			st[in.Dst] = pick(signExtend64(st[in.A], in.Aux&0xff) == signExtend64(st[in.B], in.Aux>>8), st, in)
		case lNeqMux:
			st[in.Dst] = pick(signExtend64(st[in.A], in.Aux&0xff) != signExtend64(st[in.B], in.Aux>>8), st, in)
		case lAndMux:
			st[in.Dst] = pick(st[in.A]&st[in.B] != 0, st, in)
		case lOrMux:
			st[in.Dst] = pick(st[in.A]|st[in.B] != 0, st, in)
		case lCopyRun:
			copy(st[in.Dst:in.Dst+in.Aux], st[in.A:in.A+in.Aux])
		default:
			panic(fmt.Sprintf("sim: bad linked opcode %v", in.Op))
		}
	}
}

// pick selects a fused mux's masked arm.
func pick(cond bool, st []uint64, in *LInstr) uint64 {
	if cond {
		return st[in.C] & in.Mask
	}
	return st[in.D] & in.Mask
}
