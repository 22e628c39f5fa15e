package main

import (
	"strings"

	"repro"
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/designs"
	"repro/internal/firrtl"
	"repro/internal/sim"
	"repro/internal/verify"
)

// designText generates a built-in design and prints it as IR text.
//
// Known defect, worked around here: firrtl.Print emits the built-in circuit
// name verbatim (e.g. "RocketChip-1C"), which firrtl.Parse rejects
// ("1:19: expected '{', got integer \"-1\""), so printed built-in designs do
// not parse back. The circuit and its top module are renamed to a legal
// identifier before printing. Drop the rename once the printer or parser
// is fixed; printedNameParses reports when that has happened.
func designText(cfg designs.Config) string {
	c := designs.BuildCircuit(cfg)
	legal := strings.ReplaceAll(c.Name, "-", "_")
	for _, m := range c.Modules {
		if m.Name == c.Name {
			m.Name = legal
		}
	}
	c.Name = legal
	return firrtl.Print(c)
}

// printedNameParses reports whether the printed name defect is gone: a
// built-in design printed without the rename parses back.
func printedNameParses(cfg designs.Config) bool {
	_, err := repcut.ParseCircuit(firrtl.Print(designs.BuildCircuit(cfg)))
	return err == nil
}

// stagedElaborate is repcut.Elaborate one public call at a time, each in
// its own span under parent.
func stagedElaborate(parent *Open, c *firrtl.Circuit) (*cgraph.Graph, error) {
	fc, err := Around(parent, "firrtl.flatten", func() (*firrtl.Circuit, error) { return firrtl.Flatten(c) })
	if err != nil {
		return nil, err
	}
	lc, err := Around(parent, "firrtl.lower", func() (*firrtl.Circuit, error) { return firrtl.Lower(fc) })
	if err != nil {
		return nil, err
	}
	return Around(parent, "cgraph.build", func() (*cgraph.Graph, error) { return cgraph.Build(lc) })
}

// staged is the output of stagedCompile.
type staged struct {
	Program *sim.Program
	Result  *core.Result // nil at one thread
	Specs   []sim.PartSpec
}

// stagedCompile is repcut's Design.CompileProgram (default options plus
// Verify and Validate when check is set) one public call at a time, each in
// its own span under parent. compile-sweep checks that it reproduces
// CompileProgram's fingerprint.
func stagedCompile(parent *Open, g *cgraph.Graph, threads int, seed int64, check bool) (*staged, error) {
	if seed == 0 {
		seed = 1 // repcut.Options' default, so fingerprints stay comparable
	}
	st := &staged{}
	if threads == 1 {
		st.Specs = sim.SerialSpec(g)
	} else {
		res, err := Around(parent, "core.partition", func() (*core.Result, error) {
			return core.Partition(g, core.Options{
				K: threads, Seed: seed, Model: costmodel.Default(), Verify: check, Derep: true,
			})
		})
		if err != nil {
			return nil, err
		}
		st.Result, st.Specs = res, repcut.PartSpecs(res)
	}
	p, err := Around(parent, "sim.compile", func() (*sim.Program, error) {
		return sim.Compile(g, st.Specs, sim.Config{OptLevel: 2})
	})
	if err != nil {
		return nil, err
	}
	st.Program = p
	sp := parent.Child("sim.link")
	p.Linked()
	sp.End()
	if check {
		rep, _ := Around(parent, "verify.program", func() (*verify.Report, error) {
			return verify.Program(p, verify.Options{Graph: g, Parts: st.Specs, Linked: true, Validate: true}), nil
		})
		if err := rep.Err(); err != nil {
			return nil, err
		}
	}
	return st, nil
}
