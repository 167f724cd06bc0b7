package adg

import (
	"fmt"
	"strings"
	"time"
)

// DOT renders the graph in Graphviz dot syntax, one node per activity
// colored by state (done = gray, running = orange, pending = white), with
// the scheduled interval in the label. Feed it to `dot -Tsvg` to obtain a
// diagram in the spirit of the paper's Fig. 1.
func (g *Graph) DOT(unit time.Duration) string {
	var b strings.Builder
	b.WriteString("digraph adg {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=record, fontname=\"monospace\"];\n")
	fmt.Fprintf(&b, "  label=\"ADG @ now=%s (unit %v)\";\n", fmtT(g.at(g.Now), unit), unit)
	for i := range g.Acts {
		a := &g.Acts[i]
		fill := "white"
		switch a.State() {
		case Done:
			fill = "gray85"
		case Running:
			fill = "orange"
		}
		fmt.Fprintf(&b, "  a%d [style=filled, fillcolor=%s, label=\"{%s|%s .. %s}\"];\n",
			i, fill, escapeDot(g.Label(i)), fmtT(a.TI, unit), fmtT(a.TF, unit))
	}
	for i := range g.Acts {
		for _, p := range g.Preds(i) {
			fmt.Fprintf(&b, "  a%d -> a%d;\n", p, i)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDot(s string) string {
	r := strings.NewReplacer(`"`, `\"`, `{`, `\{`, `}`, `\}`, `|`, `\|`, `<`, `\<`, `>`, `\>`)
	return r.Replace(s)
}
