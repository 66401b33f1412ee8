package core

import "kbtable/internal/kg"

// Path is a concrete root-to-keyword path in the knowledge graph. For a
// node match, the keyword is on the node reached by the last edge (or the
// root itself when Edges is empty). For an edge match (EdgeEnd), the keyword
// is on the last edge's attribute type; the edge's target node is still part
// of the subtree (it is the leaf the edge points to).
type Path struct {
	Root    kg.NodeID
	Edges   []kg.EdgeID
	EdgeEnd bool
}

// Len returns the number of nodes on the path T(w): uniformly
// 1 + len(Edges), counting the matched edge's target node for edge matches
// (see PathPattern.Len and the paper's Example 2.4).
func (p Path) Len() int { return len(p.Edges) + 1 }

// MatchNode returns the node f(w) is attached to: the end node for a node
// match, or the source node of the matched edge for an edge match (the node
// "that has an out-going edge containing word w", Section 2.2.3).
func (p Path) MatchNode(g *kg.Graph) kg.NodeID {
	if p.EdgeEnd {
		return g.Edge(p.Edges[len(p.Edges)-1]).Src
	}
	if len(p.Edges) == 0 {
		return p.Root
	}
	return g.Edge(p.Edges[len(p.Edges)-1]).Dst
}

// Leaf returns the deepest node on the path, including the matched edge's
// target for edge matches (needed for minimality and table rendering).
func (p Path) Leaf(g *kg.Graph) kg.NodeID {
	if len(p.Edges) == 0 {
		return p.Root
	}
	return g.Edge(p.Edges[len(p.Edges)-1]).Dst
}

// Nodes returns the node sequence from the root to the leaf (inclusive of
// the edge-match target node when EdgeEnd).
func (p Path) Nodes(g *kg.Graph) []kg.NodeID {
	out := make([]kg.NodeID, 0, len(p.Edges)+1)
	out = append(out, p.Root)
	for _, e := range p.Edges {
		out = append(out, g.Edge(e).Dst)
	}
	return out
}

// Pattern computes the path pattern of p (Section 2.2.2). Index
// construction calls this once per stored path; queries use interned IDs.
func (p Path) Pattern(g *kg.Graph) PathPattern {
	var pp PathPattern
	pp.EdgeEnd = p.EdgeEnd
	n := len(p.Edges)
	if p.EdgeEnd {
		pp.Types = make([]kg.TypeID, 0, n)
		pp.Attrs = make([]kg.AttrID, 0, n)
	} else {
		pp.Types = make([]kg.TypeID, 0, n+1)
		pp.Attrs = make([]kg.AttrID, 0, n)
	}
	pp.Types = append(pp.Types, g.Type(p.Root))
	for i, e := range p.Edges {
		edge := g.Edge(e)
		pp.Attrs = append(pp.Attrs, edge.Attr)
		if i < n-1 || !p.EdgeEnd {
			pp.Types = append(pp.Types, g.Type(edge.Dst))
		}
	}
	return pp
}

// Subtree is a valid subtree for an m-keyword query: one path per keyword,
// all sharing the same root (Section 2.2.1). Terms carries the precomputed
// score components of each path, parallel to Paths.
//
// Following Algorithms 2–3 and the count NR = Σ_r Π_i |Paths(wi,r)|, a
// subtree is the *ordered tuple* of paths joined at the root; tuples whose
// union re-converges are still counted, so scores and counts match the
// paper's formulas. Use IsTreeShaped to filter them when strict tree
// semantics are wanted.
type Subtree struct {
	Root  kg.NodeID
	Paths []Path
	Terms []ScoreTerms
}

// IsTreeShaped reports whether the union of the subtree's paths forms a
// directed tree: every node in the union is reached through at most one
// distinct in-edge, and the root through none.
func (s Subtree) IsTreeShaped(g *kg.Graph) bool {
	parent := map[kg.NodeID]kg.EdgeID{}
	for _, p := range s.Paths {
		cur := p.Root
		for _, eid := range p.Edges {
			e := g.Edge(eid)
			_ = cur
			dst := e.Dst
			if dst == s.Root {
				return false // cycle back to root
			}
			if prev, ok := parent[dst]; ok {
				if prev != eid {
					return false // two distinct in-edges
				}
			} else {
				parent[dst] = eid
			}
			cur = dst
		}
	}
	return true
}

// Size returns the total number of distinct nodes in the subtree's union,
// a convenience for diagnostics (the paper's score1 uses per-path lengths,
// not this).
func (s Subtree) Size(g *kg.Graph) int {
	seen := map[kg.NodeID]struct{}{s.Root: {}}
	for _, p := range s.Paths {
		for _, v := range p.Nodes(g) {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}
