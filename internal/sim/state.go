package sim

import (
	"repro/internal/bitvec"
	"repro/internal/firrtl"
)

// Runtime state shared by every executor — the linked stream (linkexec.go),
// the lane-batched executor (batchexec16.go) and native kernels
// (native.go) — plus the boxed bitvec path all of them use for wide nodes.

// memWrite is one buffered narrow memory write.
type memWrite struct {
	mem  uint32
	addr uint64
	data uint64
}

// wideMemWrite is one buffered wide memory write.
type wideMemWrite struct {
	mem  uint32
	addr uint64
	data bitvec.Vec
}

// threadCtx is one thread's runtime state.
type threadCtx struct {
	temps      []uint64
	shadow     []uint64
	wideTemps  []bitvec.Vec
	wideShadow []bitvec.Vec
	memBuf     []memWrite
	wideMemBuf []wideMemWrite
	// pad rounds the struct up to a whole number of 64-byte cache lines so
	// contiguously stored threadCtx values never share a line (six slice
	// headers = 144 bytes; +48 = 192 = 3 lines). A test asserts the size
	// stays a multiple of 64 if fields change.
	_ [6]uint64
}

// globalState is the shared simulator state.
type globalState struct {
	words    []uint64
	wide     []bitvec.Vec
	mems     [][]uint64
	wideMems [][]bitvec.Vec
}

// newGlobalState builds a global state whose narrow words alias the given
// slice: the engines pass the globals prefix of their unified state array,
// which Poke/Peek, reset and the commit copy then address through
// gs.words. The batch engine, whose narrow words live in its
// lane-interleaved array, passes nil.
func newGlobalState(p *Program, words []uint64) *globalState {
	gs := &globalState{
		words: words,
		wide:  make([]bitvec.Vec, p.GlobalWide),
	}
	for i := range gs.wide {
		gs.wide[i] = bitvec.New(64) // placeholder; sized properly on reset
	}
	for _, m := range p.Mems {
		if m.Wide {
			wm := make([]bitvec.Vec, m.Depth)
			for i := range wm {
				wm[i] = bitvec.New(m.Width)
			}
			gs.wideMems = append(gs.wideMems, wm)
			gs.mems = append(gs.mems, nil)
		} else {
			gs.mems = append(gs.mems, make([]uint64, m.Depth))
			gs.wideMems = append(gs.wideMems, nil)
		}
	}
	return gs
}

// newThreadCtx builds one thread's runtime context: temps and shadow alias
// the thread's frame in the unified state array. The memory-write buffers
// are pre-sized to the thread's static write count so steady-state cycles
// never grow them.
func newThreadCtx(p *Program, tc *ThreadCode, frame []uint64) *threadCtx {
	ctx := &threadCtx{
		temps:  frame[:tc.NumTemps:tc.NumTemps],
		shadow: frame[tc.NumTemps : tc.NumTemps+tc.ShadowWords : tc.NumTemps+tc.ShadowWords],
	}
	ctx.wideTemps = make([]bitvec.Vec, tc.NumWideTemps)
	ctx.wideShadow = make([]bitvec.Vec, len(tc.WideShadowSlots))
	for i, t := range tc.WideShadowTypes {
		ctx.wideShadow[i] = bitvec.New(t.Width)
	}
	narrow, wide := memWriteCounts(p, tc)
	if narrow > 0 {
		ctx.memBuf = make([]memWrite, 0, narrow)
	}
	if wide > 0 {
		ctx.wideMemBuf = make([]wideMemWrite, 0, wide)
	}
	return ctx
}

// memWriteCounts returns the number of narrow and wide memory-write
// instructions in a thread's code — an upper bound on writes buffered in
// one cycle, used to pre-size the write buffers.
func memWriteCounts(p *Program, tc *ThreadCode) (narrow, wide int) {
	for i := range tc.Code {
		in := &tc.Code[i]
		switch in.Op {
		case OpMemWr:
			narrow++
		case OpWide:
			if wn := &p.WideNodes[in.Aux]; wn.Kind == wkMemWr {
				if p.Mems[wn.Mem].Wide {
					wide++
				} else {
					narrow++
				}
			}
		}
	}
	return narrow, wide
}

// signExtend64 sign-extends the low w bits of x to 64 bits.
func signExtend64(x uint64, w uint32) uint64 {
	if w == 0 || w >= 64 {
		return x
	}
	shift := 64 - w
	return uint64(int64(x<<shift) >> shift)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// evalWide executes one boxed wide node through the bitvec path.
func evalWide(wn *WideNode, p *Program, gs *globalState, tc *threadCtx,
	val func(uint32) uint64, store func(uint32, uint64)) {

	fetch := func(a WideOperand) bitvec.Vec {
		switch a.Space {
		case wsWideLocal:
			return tc.wideTemps[a.Idx]
		case wsWideGlobal:
			return gs.wide[a.Idx]
		case wsWideImm:
			return p.WideImms[a.Idx]
		case wsWideShadow:
			return tc.wideShadow[a.Idx]
		default: // narrow
			return bitvec.FromUint64(a.Type.Width, val(a.Idx))
		}
	}
	put := func(v bitvec.Vec) {
		switch wn.Dst.Space {
		case wsWideLocal:
			tc.wideTemps[wn.Dst.Idx] = v
		case wsWideGlobal:
			gs.wide[wn.Dst.Idx] = v
		case wsWideShadow:
			tc.wideShadow[wn.Dst.Idx] = v
		case wsNarrow:
			store(wn.Dst.Idx, v.Uint64())
		default:
			panic("sim: bad wide destination")
		}
	}

	switch wn.Kind {
	case wkConst:
		put(fetch(wn.Args[0]).Clone())
	case wkCopy:
		src := fetch(wn.Args[0])
		if wn.Args[0].Type.Kind == firrtl.KSInt {
			put(bitvec.SignExtend(wn.RType.Width, src))
		} else {
			put(bitvec.ZeroExtend(wn.RType.Width, src))
		}
	case wkPrim:
		args := make([]bitvec.Vec, len(wn.Args))
		ats := make([]firrtl.Type, len(wn.Args))
		for i, a := range wn.Args {
			args[i] = fetch(a)
			ats[i] = a.Type
		}
		put(firrtl.EvalPrim(wn.Op, wn.RType, ats, args, wn.Consts))
	case wkMemRd:
		addr := fetch(wn.Args[0]).Uint64()
		if wm := gs.wideMems[wn.Mem]; wm != nil {
			if addr < uint64(len(wm)) {
				put(wm[addr].Clone())
			} else {
				put(bitvec.New(wn.RType.Width))
			}
			return
		}
		// Narrow memory reached via the wide path (e.g. a wide address).
		m := gs.mems[wn.Mem]
		if addr < uint64(len(m)) {
			put(bitvec.FromUint64(wn.RType.Width, m[addr]))
		} else {
			put(bitvec.New(wn.RType.Width))
		}
	case wkMemWr:
		en := fetch(wn.Args[2])
		if en.IsZero() {
			return
		}
		addr := fetch(wn.Args[0]).Uint64()
		data := fetch(wn.Args[1])
		var masked bitvec.Vec
		if wn.Args[1].Type.Kind == firrtl.KSInt {
			masked = bitvec.SignExtend(wn.RType.Width, data)
		} else {
			masked = bitvec.ZeroExtend(wn.RType.Width, data)
		}
		if gs.wideMems[wn.Mem] != nil {
			tc.wideMemBuf = append(tc.wideMemBuf, wideMemWrite{
				mem: uint32(wn.Mem), addr: addr, data: masked,
			})
		} else {
			tc.memBuf = append(tc.memBuf, memWrite{
				mem: uint32(wn.Mem), addr: addr, data: masked.Uint64(),
			})
		}
	}
}
