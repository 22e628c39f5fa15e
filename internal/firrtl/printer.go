package firrtl

import (
	"fmt"
	"strings"
)

// Print renders the circuit in the textual format accepted by Parse.
func Print(c *Circuit) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %s {\n", ident(c.Name))
	for _, m := range c.Modules {
		printModule(&sb, m)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ident renders a name as Parse reads it back: plain identifiers as is,
// anything else (e.g. the design name "RocketChip-1C") as a backtick
// literal identifier.
func ident(name string) string {
	for i := 0; i < len(name); i++ {
		if c := name[i]; !isIdentCont(c) || i == 0 && !isIdentStart(c) {
			return "`" + name + "`"
		}
	}
	return name
}

func printModule(sb *strings.Builder, m *Module) {
	fmt.Fprintf(sb, "  module %s {\n", ident(m.Name))
	for _, p := range m.Ports {
		fmt.Fprintf(sb, "    %s %s : %s\n", p.Dir, ident(p.Name), p.Type)
	}
	for _, st := range m.Stmts {
		printStmt(sb, st)
	}
	sb.WriteString("  }\n")
}

func printStmt(sb *strings.Builder, st Stmt) {
	switch s := st.(type) {
	case *Wire:
		fmt.Fprintf(sb, "    wire %s : %s\n", ident(s.Name), s.Type)
	case *Reg:
		fmt.Fprintf(sb, "    reg %s : %s", ident(s.Name), s.Type)
		if s.Init != nil {
			fmt.Fprintf(sb, " init %s", s.Init.Big().String())
		}
		sb.WriteString("\n")
	case *Mem:
		fmt.Fprintf(sb, "    mem %s : %s[%d]\n", ident(s.Name), s.Type, s.Depth)
	case *Inst:
		fmt.Fprintf(sb, "    inst %s of %s\n", ident(s.Name), ident(s.Of))
	case *Node:
		fmt.Fprintf(sb, "    node %s = %s\n", ident(s.Name), ExprString(s.Expr))
	case *MemWrite:
		fmt.Fprintf(sb, "    write(%s, %s, %s, %s)\n", ident(s.Mem),
			ExprString(s.Addr), ExprString(s.Data), ExprString(s.En))
	case *Connect:
		loc := ident(s.Loc)
		if inst, port, ok := strings.Cut(s.Loc, "."); ok {
			loc = ident(inst) + "." + ident(port)
		}
		fmt.Fprintf(sb, "    %s <= %s\n", loc, ExprString(s.Expr))
	default:
		fmt.Fprintf(sb, "    ; unknown statement %T\n", st)
	}
}

// ExprString renders an expression in the textual format.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ref:
		return ident(x.Name)
	case *Field:
		return ident(x.Inst) + "." + ident(x.Port)
	case *Lit:
		name := "UInt"
		val := x.Val.Big()
		if x.Typ.Kind == KSInt {
			name = "SInt"
			val = x.Val.SignedBig()
		}
		return fmt.Sprintf("%s<%d>(%s)", name, x.Typ.Width, val.String())
	case *MemRead:
		return fmt.Sprintf("read(%s, %s)", ident(x.Mem), ExprString(x.Addr))
	case *Prim:
		var sb strings.Builder
		sb.WriteString(x.Op.String())
		sb.WriteString("(")
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ExprString(a))
		}
		for _, c := range x.Consts {
			sb.WriteString(", ")
			fmt.Fprintf(&sb, "%d", c)
		}
		sb.WriteString(")")
		return sb.String()
	}
	return fmt.Sprintf("?expr(%T)", e)
}
