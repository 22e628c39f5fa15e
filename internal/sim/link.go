package sim

import (
	"fmt"
	"sort"
	"unsafe"
)

// This file implements the link stage: lowering a compiled Program into a
// resolved execution form where every narrow operand is a direct index into
// one flat per-engine state slice, so the executor pays no per-operand
// RefTag switch on any read or write.
//
// Unified state layout (all regions padded to SegmentWords so no cache line
// is written by two threads):
//
//	[ globals | imms (read-only copy) | frame 0 | frame 1 | ... ]
//	                                     └ temps ┆ shadow ┘
//
// gs.words and each thread's temps/shadow become subslices of the one
// state array, so the commit memcpy, Reset, Poke/Peek, and the wide path
// all keep their existing shapes. The alternative views-table layout
// (st := views[tag][idx]) still pays a tag extraction plus a second
// dependent load per operand; BenchmarkOperandResolution in
// link_bench_test.go records the bake-off that picked the flat frame.

// LOp is a linked opcode. Values below numOpCodes are the base OpCode set
// with identical semantics (operands pre-resolved); values from LFuseStart
// up are superinstructions created by the fusion pass (fuse.go).
type LOp uint8

// LFuseStart is the first fused opcode value.
const LFuseStart = LOp(numOpCodes)

// Fused superinstructions. The ten compare opcodes keep the OpLt..OpNeq
// order so a compare maps to its fused variant by constant offset.
//
// Ext variants absorb OpSext producers: operand A (and/or B) is
// sign-extended inline from the width packed into Aux (low byte = width of
// A, high byte = width of B, 0 = operand used as-is). Mux variants
// additionally absorb an OpMux consumer: dst = cmp(a,b) ? c : d.
const (
	lLtExt LOp = LFuseStart + iota
	lLeqExt
	lGtExt
	lGeqExt
	lSLtExt
	lSLeqExt
	lSGtExt
	lSGeqExt
	lEqExt
	lNeqExt
	lLtMux
	lLeqMux
	lGtMux
	lGeqMux
	lSLtMux
	lSLeqMux
	lSGtMux
	lSGeqMux
	lEqMux
	lNeqMux
	// lAndMux / lOrMux gate a mux on (a&b) != 0 / (a|b) != 0 — the
	// enable-gating idiom. Legal only when the and/or's result mask is a
	// no-op on its operands (checked against tracked operand masks).
	lAndMux
	lOrMux
	// lCopyRun copies Aux consecutive words st[Dst+i] = st[A+i] — the
	// commit-shadow sink copies coalesced into one memmove.
	lCopyRun
	numLOps
)

var lOpNames = map[LOp]string{
	lLtExt: "lt.ext", lLeqExt: "leq.ext", lGtExt: "gt.ext", lGeqExt: "geq.ext",
	lSLtExt: "slt.ext", lSLeqExt: "sleq.ext", lSGtExt: "sgt.ext", lSGeqExt: "sgeq.ext",
	lEqExt: "eq.ext", lNeqExt: "neq.ext",
	lLtMux: "lt.mux", lLeqMux: "leq.mux", lGtMux: "gt.mux", lGeqMux: "geq.mux",
	lSLtMux: "slt.mux", lSLeqMux: "sleq.mux", lSGtMux: "sgt.mux", lSGeqMux: "sgeq.mux",
	lEqMux: "eq.mux", lNeqMux: "neq.mux",
	lAndMux: "and.mux", lOrMux: "or.mux", lCopyRun: "copyrun",
}

func (o LOp) String() string {
	if o < LFuseStart {
		return OpCode(o).String()
	}
	if s, ok := lOpNames[o]; ok {
		return s
	}
	return fmt.Sprintf("?lop(%d)", uint8(o))
}

// LInstr is one linked instruction. Every operand field is a direct index
// into the engine's unified state slice; D is the fourth operand consumed
// by compare+mux superinstructions.
type LInstr struct {
	Op   LOp
	Dst  uint32
	A    uint32
	B    uint32
	C    uint32
	D    uint32
	Aux  uint32 // shift amount / cat low-width / mem or wide index / packed ext widths / run length
	Mask uint64
}

// LinkedThread is the linked form of one thread's code plus its frame
// placement in the unified state slice.
type LinkedThread struct {
	Code []LInstr
	// TempOff/ShadowOff locate the thread's frame: temps occupy
	// [TempOff, ShadowOff), shadow [ShadowOff, ShadowOff+ShadowWords).
	TempOff   uint32
	ShadowOff uint32
}

// LinkStats summarizes one link run.
type LinkStats struct {
	Instrs int // interpreter instructions in (all threads, nops excluded)
	Linked int // linked instructions out
	Fused  int // input instructions absorbed into superinstructions
	// PerOp counts superinstructions created, indexed by fused LOp.
	PerOp [numLOps]int
}

// FusionRate is the fraction of input instructions eliminated by fusion.
func (s *LinkStats) FusionRate() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Fused) / float64(s.Instrs)
}

// LinkedProgram is the resolved, fused execution form of a Program. It is
// immutable after link and shared by every engine (and every service
// session) over the same Program; per-engine mutable state is just the
// flat []uint64 of StateWords words.
type LinkedProgram struct {
	prog *Program

	// StateWords is the length of the unified state slice; ImmOff is where
	// the read-only immediate copy begins.
	StateWords int
	ImmOff     int

	Threads []LinkedThread
	// WideNodes mirrors prog.WideNodes with wsNarrow operand refs resolved
	// to state indices for the owning thread.
	WideNodes []WideNode

	Stats LinkStats
}

// Program returns the program this linked form was built from.
func (lp *LinkedProgram) Program() *Program { return lp.prog }

// Linked returns the program's linked execution form, building it on first
// use. The result depends only on the Program, so it is computed once and
// shared by all engines and sessions.
func (p *Program) Linked() *LinkedProgram {
	p.linkMu.Lock()
	defer p.linkMu.Unlock()
	if p.linked == nil {
		p.linked = link(p, !p.Shared)
	}
	return p.linked
}

// resolve maps a narrow operand reference of thread t to its state index.
func (lp *LinkedProgram) resolve(t int, ref uint32) uint32 {
	idx := RefIdx(ref)
	switch RefTag(ref) {
	case RefLocal:
		return lp.Threads[t].TempOff + idx
	case RefGlobal:
		return idx
	case RefImm:
		return uint32(lp.ImmOff) + idx
	default: // RefShadow
		return lp.Threads[t].ShadowOff + idx
	}
}

// link lowers p: lay out the unified state, resolve every operand, then,
// when fused is set, run the fusion peephole. Without fusion the streams
// keep a strict 1:1 instruction mapping — what Shared-mode programs need,
// since their Marks and TaskRange slices index the code and their threads
// communicate mid-cycle, so eliminating or sinking an instruction is
// observable; it is also the unfused O0 reference (NewUnfusedEngine).
func link(p *Program, fused bool) *LinkedProgram {
	lp := &LinkedProgram{prog: p}
	off := padTo(uint32(p.GlobalWords), SegmentWords)
	lp.ImmOff = int(off)
	off = padTo(off+uint32(len(p.Imms)), SegmentWords)
	lp.Threads = make([]LinkedThread, len(p.Threads))
	for t := range p.Threads {
		th := &p.Threads[t]
		lt := &lp.Threads[t]
		lt.TempOff = off
		lt.ShadowOff = off + uint32(th.NumTemps)
		off = padTo(lt.ShadowOff+uint32(th.ShadowWords), SegmentWords)
	}
	lp.StateWords = int(off)

	lp.WideNodes = make([]WideNode, len(p.WideNodes))
	copy(lp.WideNodes, p.WideNodes)
	wideOwned := make([]bool, len(p.WideNodes))

	// masks[i] is the known upper bound on the bits state word i can hold
	// (^0 when unknown); the fusion pass uses it to prove and/or gating
	// and copy-run coalescing sound.
	masks := make([]uint64, lp.StateWords)
	for i := range masks {
		masks[i] = ^uint64(0)
	}
	for _, in := range p.Inputs {
		if !in.Wide {
			masks[in.Slot] = maskOf(in.Width)
		}
	}
	for i := range p.Regs {
		if r := &p.Regs[i]; !r.Wide {
			masks[r.Slot] = maskOf(r.Width)
		}
	}
	for i, v := range p.Imms {
		masks[lp.ImmOff+i] = v
	}

	for t := range p.Threads {
		th := &p.Threads[t]
		lt := &lp.Threads[t]
		lt.Code = lp.translate(t, th, masks, wideOwned)
		lp.Stats.Instrs += countNonNop(th.Code)
	}
	if fused {
		fuse(lp, masks)
	}
	for t := range lp.Threads {
		lp.Stats.Linked += len(lp.Threads[t].Code)
	}
	lp.Stats.Fused = lp.Stats.Instrs - lp.Stats.Linked
	return lp
}

func countNonNop(code []Instr) int {
	n := 0
	for i := range code {
		if code[i].Op != OpNop {
			n++
		}
	}
	return n
}

// translate resolves one thread's operands 1:1 (nops preserved for
// Shared-mode mark stability; the fusion pass compacts them later for
// private-temp programs) and records destination masks.
func (lp *LinkedProgram) translate(t int, th *ThreadCode, masks []uint64, wideOwned []bool) []LInstr {
	out := make([]LInstr, len(th.Code))
	for pc := range th.Code {
		in := &th.Code[pc]
		li := &out[pc]
		li.Op = LOp(in.Op)
		li.Aux = in.Aux
		li.Mask = in.Mask
		switch in.Op {
		case OpNop:
		case OpWide:
			li.Aux = lp.linkWideNode(t, in.Aux, wideOwned)
			wn := &lp.WideNodes[li.Aux]
			if wn.Dst.Space == wsNarrow && wn.RType.Width <= 64 {
				masks[wn.Dst.Idx] = maskOf(wn.RType.Width)
			}
		case OpMemWr:
			li.A = lp.resolve(t, in.A)
			li.B = lp.resolve(t, in.B)
			li.C = lp.resolve(t, in.C)
		default:
			switch opReads(in.Op) {
			case 3:
				li.C = lp.resolve(t, in.C)
				fallthrough
			case 2:
				li.B = lp.resolve(t, in.B)
				fallthrough
			case 1:
				li.A = lp.resolve(t, in.A)
			}
			li.Dst = lp.resolve(t, in.Dst)
			masks[li.Dst] = dstMask(in)
		}
	}
	return out
}

// dstMask is the tightest known mask of an instruction's result.
func dstMask(in *Instr) uint64 {
	switch in.Op {
	case OpLt, OpLeq, OpGt, OpGeq, OpSLt, OpSLeq, OpSGt, OpSGeq, OpEq, OpNeq,
		OpAndr, OpOrr, OpXorr:
		return 1
	case OpSext:
		return ^uint64(0) // full 64-bit sign-extended value
	default:
		return in.Mask
	}
}

// linkWideNode clones wide node w with its narrow refs resolved for thread
// t. Compilation gives each thread its own wide-node range, but if a node
// were ever shared across threads the second thread gets a fresh clone so
// both resolve correctly.
func (lp *LinkedProgram) linkWideNode(t int, w uint32, wideOwned []bool) uint32 {
	src := &lp.prog.WideNodes[w]
	wn := *src
	wn.Args = append([]WideOperand(nil), src.Args...)
	for i := range wn.Args {
		if wn.Args[i].Space == wsNarrow {
			wn.Args[i].Idx = lp.resolve(t, wn.Args[i].Idx)
		}
	}
	if wn.Dst.Space == wsNarrow {
		wn.Dst.Idx = lp.resolve(t, wn.Dst.Idx)
	}
	if int(w) < len(wideOwned) && !wideOwned[w] {
		wideOwned[w] = true
		lp.WideNodes[w] = wn
		return w
	}
	lp.WideNodes = append(lp.WideNodes, wn)
	return uint32(len(lp.WideNodes) - 1)
}

// LinkedLoc decodes a unified-state index back into the space-relative
// location it aliases plus the owning thread (-1 for globals and
// immediates). ok is false for padding words no region owns.
func (lp *LinkedProgram) LinkedLoc(idx uint32) (loc Loc, thread int, ok bool) {
	p := lp.prog
	if int(idx) < p.GlobalWords {
		return Loc{SpaceGlobal, idx}, -1, true
	}
	if int(idx) >= lp.ImmOff && int(idx) < lp.ImmOff+len(p.Imms) {
		return Loc{SpaceImm, idx - uint32(lp.ImmOff)}, -1, true
	}
	// Find the last thread whose frame starts at or before idx.
	t := sort.Search(len(lp.Threads), func(i int) bool {
		return lp.Threads[i].TempOff > idx
	}) - 1
	if t < 0 {
		return Loc{}, -1, false
	}
	lt := &lp.Threads[t]
	th := &p.Threads[t]
	switch {
	case idx < lt.ShadowOff:
		return Loc{SpaceLocal, idx - lt.TempOff}, t, true
	case int(idx) < int(lt.ShadowOff)+th.ShadowWords:
		return Loc{SpaceShadow, idx - lt.ShadowOff}, t, true
	}
	return Loc{}, -1, false
}

// LinkedDefUse appends one linked instruction's narrow defs/uses (as
// unified-state indices) and its wide/memory locations (which have no flat
// index) to the given slices, returning the extended slices. It is the
// linked-code counterpart of Program.InstrDefUse, used by internal/verify
// to prove race freedom over fused programs.
func (lp *LinkedProgram) LinkedDefUse(in *LInstr, ndefs, nuses []uint32, wdefs, wuses []Loc) ([]uint32, []uint32, []Loc, []Loc) {
	switch {
	case in.Op == LOp(OpNop):
	case in.Op == LOp(OpWide):
		wn := &lp.WideNodes[in.Aux]
		for i := range wn.Args {
			if wn.Args[i].Space == wsNarrow {
				nuses = append(nuses, wn.Args[i].Idx)
			} else {
				wuses = append(wuses, WideLoc(wn.Args[i]))
			}
		}
		switch wn.Kind {
		case wkMemRd:
			wuses = append(wuses, Loc{SpaceMem, uint32(wn.Mem)})
			if wn.Dst.Space == wsNarrow {
				ndefs = append(ndefs, wn.Dst.Idx)
			} else {
				wdefs = append(wdefs, WideLoc(wn.Dst))
			}
		case wkMemWr:
			wdefs = append(wdefs, Loc{SpaceMem, uint32(wn.Mem)})
		default:
			if wn.Dst.Space == wsNarrow {
				ndefs = append(ndefs, wn.Dst.Idx)
			} else {
				wdefs = append(wdefs, WideLoc(wn.Dst))
			}
		}
	case in.Op == LOp(OpMemRd):
		nuses = append(nuses, in.A)
		wuses = append(wuses, Loc{SpaceMem, in.Aux})
		ndefs = append(ndefs, in.Dst)
	case in.Op == LOp(OpMemWr):
		nuses = append(nuses, in.A, in.B, in.C)
		wdefs = append(wdefs, Loc{SpaceMem, in.Aux})
	case in.Op == lCopyRun:
		for k := uint32(0); k < in.Aux; k++ {
			nuses = append(nuses, in.A+k)
			ndefs = append(ndefs, in.Dst+k)
		}
	case in.Op >= lLtMux && in.Op <= lOrMux:
		nuses = append(nuses, in.A, in.B, in.C, in.D)
		ndefs = append(ndefs, in.Dst)
	case in.Op >= lLtExt && in.Op <= lNeqExt:
		nuses = append(nuses, in.A, in.B)
		ndefs = append(ndefs, in.Dst)
	default:
		refs := [3]uint32{in.A, in.B, in.C}
		for k := 0; k < opReads(OpCode(in.Op)); k++ {
			nuses = append(nuses, refs[k])
		}
		ndefs = append(ndefs, in.Dst)
	}
	return ndefs, nuses, wdefs, wuses
}

// MemBytes estimates the resident footprint the linked form adds on top of
// the Program; Program.MemBytes includes it once the program is linked, so
// the service compile cache charges linked bytes to its LRU budget.
func (lp *LinkedProgram) MemBytes() int64 {
	const (
		lInstrSize   = int64(unsafe.Sizeof(LInstr{}))
		threadSize   = int64(unsafe.Sizeof(LinkedThread{}))
		wideNodeSize = int64(unsafe.Sizeof(WideNode{}))
		operandSize  = int64(unsafe.Sizeof(WideOperand{}))
	)
	n := int64(unsafe.Sizeof(LinkedProgram{}))
	for t := range lp.Threads {
		n += threadSize + int64(len(lp.Threads[t].Code))*lInstrSize
	}
	for i := range lp.WideNodes {
		wn := &lp.WideNodes[i]
		n += wideNodeSize
		n += int64(len(wn.Args)) * operandSize
		n += int64(len(wn.Consts)) * int64(unsafe.Sizeof(int(0)))
	}
	return n
}
