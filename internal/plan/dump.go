package plan

import (
	"fmt"
	"strings"
)

// Dump renders the compiled program as an indented step listing, one line
// per step: pre-order index, operation, skeleton kind, muscle slots and
// control parameters. It is the debugging view `adgdump -plan` prints, so
// drift reports can quote the exact IR all engines walked.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s — %d steps\n", p.node, len(p.steps))
	p.root.dump(&b, 0)
	return b.String()
}

func (s *Step) dump(b *strings.Builder, depth int) {
	fmt.Fprintf(b, "%s#%-3d %-9s %-4s", strings.Repeat("  ", depth), s.index, s.op, s.nd.Kind())
	if s.cond != nil {
		fmt.Fprintf(b, "  fc=%s", s.cond.Name())
	}
	if s.split != nil {
		fmt.Fprintf(b, "  fs=%s", s.split.Name())
	}
	if s.exec != nil {
		fmt.Fprintf(b, "  fe=%s", s.exec.Name())
	}
	if s.merge != nil {
		fmt.Fprintf(b, "  fm=%s", s.merge.Name())
	}
	if s.op == OpRepeat {
		fmt.Fprintf(b, "  n=%d", s.n)
	}
	fmt.Fprintf(b, "  depth=%d", len(s.trace))
	b.WriteByte('\n')
	for _, c := range s.children {
		c.dump(b, depth+1)
	}
}
