package milp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"insitu/internal/obs"
)

// Tree is the JSON document a recorded search serializes to.
type Tree struct {
	Schema int         `json:"schema"`
	Names  []string    `json:"names,omitempty"` // variable names for branch labels
	Nodes  []NodeEvent `json:"nodes"`
}

// TreeSchemaVersion is stamped into every exported tree; ReadTree rejects
// documents from a newer schema rather than misreading them.
const TreeSchemaVersion = 1

// TreeRecorder captures the branch-and-bound tree from the node records of a
// flight stream. Install it with Options{Progress: rec.Observe}, or feed it a
// stream read back from a ledger; it is cheap enough to run inside the search
// loop (one append per node).
type TreeRecorder struct {
	names []string
	nodes []NodeEvent
}

// NewTreeRecorder returns a recorder.
func NewTreeRecorder() *TreeRecorder { return &TreeRecorder{} }

// SetNames sets the variable names used for branch labels, so DOT branch
// edges read "x[A1,n=3,k=1]=0" instead of "x17=0".
func (r *TreeRecorder) SetNames(names []string) {
	r.names = append([]string(nil), names...)
}

// Observe appends the node a node record describes and ignores every other
// record; it is an Options.Progress hook. A record with no incumbent carries
// Incumbent 0, so every recorded tree encodes as JSON.
func (r *TreeRecorder) Observe(p obs.SolveProgress) {
	if p.Kind != obs.SolveProgNode {
		return
	}
	r.nodes = append(r.nodes, NodeEvent{
		Node:        p.Nodes,
		Parent:      p.Parent,
		Depth:       p.Depth,
		Bound:       p.NodeBound,
		Incumbent:   p.Incumbent,
		HasInc:      p.HasInc,
		Action:      p.Action,
		BranchVar:   p.BranchVar,
		BranchDir:   p.BranchDir,
		BranchBound: p.BranchBound,
	})
}

// Nodes returns the recorded nodes in exploration order.
func (r *TreeRecorder) Nodes() []NodeEvent { return r.nodes }

// Tree returns the recorder's content as a serializable document.
func (r *TreeRecorder) Tree() Tree {
	return Tree{Schema: TreeSchemaVersion, Names: r.names, Nodes: r.nodes}
}

// WriteJSON exports the recorded tree as an indented JSON document that
// ReadTree round-trips exactly.
func (r *TreeRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Tree())
}

// ReadTree parses a tree document produced by WriteJSON.
func ReadTree(rd io.Reader) (Tree, error) {
	var t Tree
	if err := json.NewDecoder(rd).Decode(&t); err != nil {
		return Tree{}, fmt.Errorf("milp: parsing tree: %w", err)
	}
	if t.Schema != TreeSchemaVersion {
		return Tree{}, fmt.Errorf("milp: tree schema v%d, this reader understands v%d", t.Schema, TreeSchemaVersion)
	}
	return t, nil
}

// varName resolves a branch variable to its LP name, falling back to x<j>.
func (r *TreeRecorder) varName(j int) string {
	if j >= 0 && j < len(r.names) && r.names[j] != "" {
		return r.names[j]
	}
	return fmt.Sprintf("x%d", j)
}

// WriteDOT exports the recorded tree as a Graphviz digraph: one box per
// explored node colored by outcome (branched white, integral green, pruned
// gray, infeasible red), edges labeled with the branching decision.
func (r *TreeRecorder) WriteDOT(w io.Writer) error {
	var b strings.Builder
	b.WriteString("digraph bnb {\n")
	b.WriteString("  rankdir=TB;\n")
	b.WriteString("  node [shape=box, style=filled, fontname=\"monospace\", fontsize=10];\n")
	for _, n := range r.nodes {
		color := "white"
		switch n.Action {
		case "integral":
			color = "palegreen"
		case "pruned":
			color = "lightgray"
		case "infeasible":
			color = "lightcoral"
		}
		label := fmt.Sprintf("n%d %s\\nbound=%.4g", n.Node, n.Action, n.Bound)
		if n.HasInc {
			label += fmt.Sprintf("\\ninc=%.4g", n.Incumbent)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\", fillcolor=%s];\n", n.Node, label, color)
		if n.Parent > 0 {
			op := "<="
			if n.BranchDir == "up" {
				op = ">="
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s %s %g\"];\n",
				n.Parent, n.Node, dotEscape(r.varName(n.BranchVar)), op, n.BranchBound)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// dotEscape quotes the characters that would break a DOT double-quoted label.
func dotEscape(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\"", "\\\"")
}
