// Package kg implements the knowledge-graph substrate of the paper
// (Section 2.1): a directed graph G = (V, E, τ, α) where nodes are entities
// labeled with entity types, edges are attributes labeled with attribute
// types, and entities / entity types / attribute types carry text
// descriptions. Plain-text attribute values become dummy entities holding
// the text, exactly as the paper assumes w.l.o.g.
//
// A Graph is constructed through a Builder and then frozen into an immutable
// CSR (compressed sparse row) form that supports fast forward and backward
// traversal, which the path indexes and the baseline's backward search need.
package kg

import "fmt"

// NodeID identifies an entity. IDs are dense, assigned in insertion order.
type NodeID int32

// EdgeID identifies an attribute edge in the frozen graph. EdgeIDs are
// assigned by Freeze in (source, insertion) order so that a node's out-edges
// are contiguous.
type EdgeID int32

// TypeID identifies an entity type (τ values). LiteralType is reserved for
// dummy entities created from plain-text attribute values.
type TypeID int32

// AttrID identifies an attribute type (α values).
type AttrID int32

// LiteralType is the entity type of dummy nodes created from plain text.
// The paper omits types on such nodes; we give them a reserved type whose
// name renders as "Literal" in patterns and table headers.
const LiteralType TypeID = 0

// Edge is a directed attribute edge v --A--> u, meaning v.A = u.
type Edge struct {
	Src  NodeID
	Dst  NodeID
	Attr AttrID
}

// Graph is an immutable knowledge graph in CSR form. Construct via Builder.
type Graph struct {
	typeNames []string
	attrNames []string

	nodeType []TypeID
	nodeText []string

	// edges sorted by Src; outStart[v]..outStart[v+1] delimit v's out-edges.
	edges    []Edge
	outStart []int32

	// Backward adjacency: inEdges lists EdgeIDs sorted by Dst;
	// inStart[v]..inStart[v+1] delimit edges pointing at v.
	inEdges []EdgeID
	inStart []int32

	// nodesByType[t] lists the NodeIDs of type t in ascending order;
	// LINEARENUM-TOPK partitions candidate roots by this.
	nodesByType [][]NodeID

	// removed marks tombstoned nodes left behind by Delta.Apply: their
	// NodeIDs stay valid (everything downstream references nodes by dense
	// ID) but they carry no text, no edges, and are excluded from
	// nodesByType, so no path and no posting can involve them. nil when the
	// graph never saw a removal.
	removed []bool
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeType) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumTypes returns |C|, the number of entity types including LiteralType.
func (g *Graph) NumTypes() int { return len(g.typeNames) }

// NumAttrs returns |A|, the number of attribute types.
func (g *Graph) NumAttrs() int { return len(g.attrNames) }

// Type returns τ(v).
func (g *Graph) Type(v NodeID) TypeID { return g.nodeType[v] }

// Text returns v.text, the entity's text description.
func (g *Graph) Text(v NodeID) string { return g.nodeText[v] }

// TypeName returns C.text for an entity type.
func (g *Graph) TypeName(t TypeID) string { return g.typeNames[t] }

// AttrName returns A.text for an attribute type.
func (g *Graph) AttrName(a AttrID) string { return g.attrNames[a] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// OutEdges returns the IDs of v's out-edges as a contiguous range
// [first, first+n). The slice of edges is g.edges[first : first+n].
func (g *Graph) OutEdges(v NodeID) (first EdgeID, n int) {
	return EdgeID(g.outStart[v]), int(g.outStart[v+1] - g.outStart[v])
}

// OutEdgeSlice returns v's out-edges as a shared (read-only) slice.
func (g *Graph) OutEdgeSlice(v NodeID) []Edge {
	return g.edges[g.outStart[v]:g.outStart[v+1]]
}

// OutDegree returns the number of out-edges of v (used by PageRank).
func (g *Graph) OutDegree(v NodeID) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// InEdgeIDs returns the IDs of edges pointing at v (read-only slice).
func (g *Graph) InEdgeIDs(v NodeID) []EdgeID {
	return g.inEdges[g.inStart[v]:g.inStart[v+1]]
}

// NodesOfType returns all live nodes with type t in ascending NodeID order.
// The returned slice is shared and must not be modified.
func (g *Graph) NodesOfType(t TypeID) []NodeID { return g.nodesByType[t] }

// Removed reports whether v was tombstoned by a Delta. Removed nodes keep
// their (now inert) slot so that surviving NodeIDs stay stable.
func (g *Graph) Removed(v NodeID) bool {
	return g.removed != nil && g.removed[v]
}

// NumRemoved returns the number of tombstoned nodes.
func (g *Graph) NumRemoved() int {
	n := 0
	for _, r := range g.removed {
		if r {
			n++
		}
	}
	return n
}

// LookupType returns the TypeID with the given name, or -1.
func (g *Graph) LookupType(name string) TypeID {
	for i, n := range g.typeNames {
		if n == name {
			return TypeID(i)
		}
	}
	return -1
}

// LookupAttr returns the AttrID with the given name, or -1.
func (g *Graph) LookupAttr(name string) AttrID {
	for i, n := range g.attrNames {
		if n == name {
			return AttrID(i)
		}
	}
	return -1
}

// Stats summarizes the graph for logging and experiment reports.
type Stats struct {
	Nodes int
	Edges int
	Types int
	Attrs int
}

// Stats returns summary counts.
func (g *Graph) Stats() Stats {
	return Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Types: g.NumTypes(), Attrs: g.NumAttrs()}
}

func (g *Graph) String() string {
	s := g.Stats()
	return fmt.Sprintf("kg.Graph{nodes=%d edges=%d types=%d attrs=%d}", s.Nodes, s.Edges, s.Types, s.Attrs)
}
