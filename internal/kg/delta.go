package kg

import (
	"fmt"
	"sort"
)

// Delta stages a batch of mutations against a frozen Graph and applies
// them functionally: Apply produces a NEW immutable Graph (the base is
// never modified), plus a Changed record describing exactly what moved so
// the path-pattern index can be maintained incrementally instead of
// rebuilt. This is the write half of treating ingest as a first-class
// workload next to queries: readers keep using the old snapshot while a
// new one is derived.
//
// ID stability is the load-bearing property. Surviving nodes keep their
// NodeIDs; new nodes are appended after the base ID space; removed nodes
// become inert tombstones (Literal type, empty text, no edges, excluded
// from NodesOfType) rather than being compacted away, so that posting
// lists of unaffected roots stay valid verbatim. EdgeIDs shift when an
// edge is removed or added before a surviving one (the CSR re-sorts by
// source); Changed.EdgeMap records the old→new mapping so index
// maintenance can remap.
//
// Every mutator validates eagerly and returns an error on a
// type-inconsistent or dangling operation; a Delta that only ever returned
// nil errors always Applies cleanly. Delta is not safe for concurrent use.
type Delta struct {
	base *Graph

	// Name interning for types/attributes new in this delta.
	typeIDs   map[string]TypeID
	typeNames []string // base names + new names
	attrIDs   map[string]AttrID
	attrNames []string

	// Appended nodes (IDs base.NumNodes()+i).
	newType []TypeID
	newText []string

	addedEdges   []Edge
	removedEdges map[EdgeID]bool   // base EdgeIDs cut by this delta
	removedNodes map[NodeID]bool   // tombstoned by this delta
	retext       map[NodeID]string // text overrides
}

// NewDelta starts an empty batch of mutations against g.
func NewDelta(g *Graph) *Delta {
	d := &Delta{
		base:         g,
		typeIDs:      make(map[string]TypeID, len(g.typeNames)),
		typeNames:    append([]string(nil), g.typeNames...),
		attrIDs:      make(map[string]AttrID, len(g.attrNames)),
		attrNames:    append([]string(nil), g.attrNames...),
		removedEdges: make(map[EdgeID]bool),
		removedNodes: make(map[NodeID]bool),
		retext:       make(map[NodeID]string),
	}
	for i, n := range g.typeNames {
		d.typeIDs[n] = TypeID(i)
	}
	for i, n := range g.attrNames {
		d.attrIDs[n] = AttrID(i)
	}
	return d
}

// numNodes is the staged node count: base nodes plus appended ones.
func (d *Delta) numNodes() int { return d.base.NumNodes() + len(d.newType) }

// nodeType returns τ(v) under the staged state.
func (d *Delta) nodeType(v NodeID) TypeID {
	if int(v) < d.base.NumNodes() {
		return d.base.Type(v)
	}
	return d.newType[int(v)-d.base.NumNodes()]
}

// live reports an error unless v is a valid, non-tombstoned node under the
// staged state.
func (d *Delta) live(v NodeID) error {
	if v < 0 || int(v) >= d.numNodes() {
		return fmt.Errorf("kg: node %d out of range [0,%d)", v, d.numNodes())
	}
	if int(v) < d.base.NumNodes() && d.base.Removed(v) {
		return fmt.Errorf("kg: node %d was removed by an earlier update", v)
	}
	if d.removedNodes[v] {
		return fmt.Errorf("kg: node %d is removed by this update", v)
	}
	return nil
}

// AddEntity appends an entity with the given type name (new names are
// interned) and text, returning its future NodeID. The reserved Literal
// type cannot be instantiated directly; plain-text values go through
// AddTextAttr, mirroring Builder.
func (d *Delta) AddEntity(typeName, text string) (NodeID, error) {
	if typeName == "" {
		return -1, fmt.Errorf("kg: entity type name must not be empty")
	}
	if typeName == d.typeNames[LiteralType] {
		return -1, fmt.Errorf("kg: type %q is reserved for plain-text values; use AddTextAttr", typeName)
	}
	t, ok := d.typeIDs[typeName]
	if !ok {
		t = TypeID(len(d.typeNames))
		d.typeIDs[typeName] = t
		d.typeNames = append(d.typeNames, typeName)
	}
	id := NodeID(d.numNodes())
	d.newType = append(d.newType, t)
	d.newText = append(d.newText, text)
	return id, nil
}

// AddAttr stages the attribute edge src.attrName = dst. Literal nodes are
// value leaves (Section 2.1): giving one an out-edge is a type error.
func (d *Delta) AddAttr(src NodeID, attrName string, dst NodeID) error {
	if attrName == "" {
		return fmt.Errorf("kg: attribute name must not be empty")
	}
	if err := d.live(src); err != nil {
		return fmt.Errorf("kg: attribute source: %w", err)
	}
	if err := d.live(dst); err != nil {
		return fmt.Errorf("kg: attribute target: %w", err)
	}
	if d.nodeType(src) == LiteralType {
		return fmt.Errorf("kg: node %d is a plain-text literal and cannot have attributes", src)
	}
	a, ok := d.attrIDs[attrName]
	if !ok {
		a = AttrID(len(d.attrNames))
		d.attrIDs[attrName] = a
		d.attrNames = append(d.attrNames, attrName)
	}
	d.addedEdges = append(d.addedEdges, Edge{Src: src, Dst: dst, Attr: a})
	return nil
}

// AddTextAttr stages src.attrName = value for a plain-text value: a dummy
// Literal entity is appended to hold the text, and its NodeID is returned.
func (d *Delta) AddTextAttr(src NodeID, attrName, value string) (NodeID, error) {
	if err := d.live(src); err != nil {
		return -1, fmt.Errorf("kg: attribute source: %w", err)
	}
	if d.nodeType(src) == LiteralType {
		return -1, fmt.Errorf("kg: node %d is a plain-text literal and cannot have attributes", src)
	}
	if attrName == "" {
		return -1, fmt.Errorf("kg: attribute name must not be empty")
	}
	lit := NodeID(d.numNodes())
	d.newType = append(d.newType, LiteralType)
	d.newText = append(d.newText, value)
	if err := d.AddAttr(src, attrName, lit); err != nil {
		// Roll the literal back so the delta stays consistent.
		d.newType = d.newType[:len(d.newType)-1]
		d.newText = d.newText[:len(d.newText)-1]
		return -1, err
	}
	return lit, nil
}

// SetText stages a replacement text description for v.
func (d *Delta) SetText(v NodeID, text string) error {
	if err := d.live(v); err != nil {
		return err
	}
	d.retext[v] = text
	return nil
}

// RemoveEdge cuts every staged edge src --attrName--> dst (multi-valued
// attributes can hold the same triple more than once) and returns how many
// were cut. A triple that matches nothing is an error: the caller's view
// of the KB is stale.
func (d *Delta) RemoveEdge(src NodeID, attrName string, dst NodeID) (int, error) {
	if err := d.live(src); err != nil {
		return 0, fmt.Errorf("kg: edge source: %w", err)
	}
	if err := d.live(dst); err != nil {
		return 0, fmt.Errorf("kg: edge target: %w", err)
	}
	a, ok := d.attrIDs[attrName]
	if !ok {
		return 0, fmt.Errorf("kg: unknown attribute type %q", attrName)
	}
	n := 0
	if int(src) < d.base.NumNodes() {
		first, cnt := d.base.OutEdges(src)
		for i := 0; i < cnt; i++ {
			id := first + EdgeID(i)
			e := d.base.Edge(id)
			if e.Attr == a && e.Dst == dst && !d.removedEdges[id] {
				d.removedEdges[id] = true
				n++
			}
		}
	}
	n += d.dropAddedEdges(func(e Edge) bool { return e.Src == src && e.Attr == a && e.Dst == dst })
	if n == 0 {
		return 0, fmt.Errorf("kg: no edge %d --%s--> %d", src, attrName, dst)
	}
	return n, nil
}

// RemoveEntity tombstones v and cascades to every incident edge (in both
// directions). Literal values v pointed at are NOT removed automatically —
// remove them explicitly if they should not remain as free-standing text
// entities.
func (d *Delta) RemoveEntity(v NodeID) error {
	if err := d.live(v); err != nil {
		return err
	}
	if int(v) < d.base.NumNodes() {
		first, cnt := d.base.OutEdges(v)
		for i := 0; i < cnt; i++ {
			d.removedEdges[first+EdgeID(i)] = true
		}
		for _, id := range d.base.InEdgeIDs(v) {
			d.removedEdges[id] = true
		}
	}
	d.dropAddedEdges(func(e Edge) bool { return e.Src == v || e.Dst == v })
	delete(d.retext, v)
	d.removedNodes[v] = true
	return nil
}

// dropAddedEdges filters staged added edges, returning how many matched.
func (d *Delta) dropAddedEdges(match func(Edge) bool) int {
	n := 0
	kept := d.addedEdges[:0]
	for _, e := range d.addedEdges {
		if match(e) {
			n++
			continue
		}
		kept = append(kept, e)
	}
	d.addedEdges = kept
	return n
}

// Changed describes one applied Delta: the old and new snapshots plus the
// structural diff that incremental index maintenance consumes.
type Changed struct {
	Old, New *Graph

	// EdgeMap maps every old EdgeID to its new EdgeID, -1 if the edge was
	// removed. nil means every old EdgeID keeps its ID: nothing was
	// removed, and every added edge sorts after the surviving ones.
	EdgeMap []EdgeID

	// Touched lists (sorted, deduplicated, new-graph numbering) every node
	// whose local state changed: endpoints of added/removed edges, added,
	// removed and re-texted nodes. A root's postings can only have changed
	// if its (d-1)-neighborhood intersects this set — see AffectedRoots.
	Touched []NodeID

	// AddedNodes is the number of nodes appended (their IDs are
	// Old.NumNodes() … New.NumNodes()-1).
	AddedNodes   int
	RemovedNodes int
	AddedEdges   int
	RemovedEdges int
}

// Apply materializes the staged mutations into a new immutable Graph. The
// base graph is untouched and remains fully usable (in-flight readers keep
// their snapshot).
func (d *Delta) Apply() (*Changed, error) {
	if len(d.newType) == 0 && len(d.addedEdges) == 0 && len(d.removedEdges) == 0 &&
		len(d.removedNodes) == 0 && len(d.retext) == 0 {
		return nil, fmt.Errorf("kg: empty update")
	}
	base := d.base
	n := base.NumNodes() + len(d.newType)

	g := &Graph{
		typeNames: d.typeNames,
		attrNames: d.attrNames,
		nodeType:  make([]TypeID, n),
		nodeText:  make([]string, n),
	}
	copy(g.nodeType, base.nodeType)
	copy(g.nodeText, base.nodeText)
	copy(g.nodeType[base.NumNodes():], d.newType)
	copy(g.nodeText[base.NumNodes():], d.newText)
	if base.removed != nil || len(d.removedNodes) > 0 {
		g.removed = make([]bool, n)
		copy(g.removed, base.removed)
	}
	for v, txt := range d.retext {
		g.nodeText[v] = txt
	}
	for v := range d.removedNodes {
		// Tombstone: Literal type + empty text keeps the slot inert for
		// both index construction (literal type text is not searchable)
		// and the baseline's online search.
		g.removed[v] = true
		g.nodeType[v] = LiteralType
		g.nodeText[v] = ""
	}

	// Rebuild the edge list: surviving base edges (tagged with their old
	// IDs) plus added ones, stably re-sorted by Src inside freezeGraph.
	// Stability means per-source relative order is preserved, so the DFS
	// enumeration order of any untouched root is byte-for-byte what it was.
	type tagged struct {
		e   Edge
		old EdgeID
	}
	tag := make([]tagged, 0, len(base.edges)-len(d.removedEdges)+len(d.addedEdges))
	for id, e := range base.edges {
		if d.removedEdges[EdgeID(id)] {
			continue
		}
		tag = append(tag, tagged{e: e, old: EdgeID(id)})
	}
	for _, e := range d.addedEdges {
		tag = append(tag, tagged{e: e, old: -1})
	}
	sort.SliceStable(tag, func(i, j int) bool { return tag[i].e.Src < tag[j].e.Src })
	// Identity: nothing removed, and every added edge sorted after the rest.
	identity := len(d.removedEdges) == 0
	for newID := 0; identity && newID < len(base.edges); newID++ {
		identity = tag[newID].old == EdgeID(newID)
	}
	g.edges = make([]Edge, len(tag))
	var edgeMap []EdgeID
	if !identity {
		edgeMap = make([]EdgeID, len(base.edges))
		for i := range edgeMap {
			edgeMap[i] = -1
		}
	}
	for newID, t := range tag {
		g.edges[newID] = t.e
		if !identity && t.old >= 0 {
			edgeMap[t.old] = EdgeID(newID)
		}
	}
	if err := freezeGraph(g); err != nil {
		return nil, err // unreachable if eager validation held
	}

	touched := make(map[NodeID]bool)
	for id := range d.removedEdges {
		e := base.Edge(id)
		touched[e.Src] = true
		touched[e.Dst] = true
	}
	for _, e := range d.addedEdges {
		touched[e.Src] = true
		touched[e.Dst] = true
	}
	for v := range d.removedNodes {
		touched[v] = true
	}
	for v := range d.retext {
		touched[v] = true
	}
	for i := range d.newType {
		touched[NodeID(base.NumNodes()+i)] = true
	}
	ts := make([]NodeID, 0, len(touched))
	for v := range touched {
		ts = append(ts, v)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	return &Changed{
		Old:          base,
		New:          g,
		EdgeMap:      edgeMap,
		Touched:      ts,
		AddedNodes:   len(d.newType),
		RemovedNodes: len(d.removedNodes),
		AddedEdges:   len(d.addedEdges),
		RemovedEdges: len(d.removedEdges),
	}, nil
}

// AffectedRoots returns (sorted) every node from whose perspective the
// change is visible within `depth` forward edges: the union, over both the
// old and the new snapshot, of the backward ≤depth-neighborhoods of the
// touched nodes. Any indexed path of at most depth edges that traverses a
// changed node or edge starts at one of these roots, so re-running the
// bounded-height DFS from exactly this set (and splicing the results) is
// equivalent to a full index rebuild.
//
// Both snapshots matter: the old one catches roots that could reach a
// removed element (those paths must disappear), the new one catches roots
// that now reach an added element (those paths must appear).
func AffectedRoots(ch *Changed, depth int) []NodeID {
	marked := make([]bool, ch.New.NumNodes())
	oldStarts := make([]NodeID, 0, len(ch.Touched))
	for _, v := range ch.Touched {
		if int(v) < ch.Old.NumNodes() {
			oldStarts = append(oldStarts, v)
		}
	}
	backwardReach(ch.Old, oldStarts, depth, marked)
	backwardReach(ch.New, ch.Touched, depth, marked)
	out := make([]NodeID, 0, len(ch.Touched))
	for v, m := range marked {
		if m {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// backwardReach marks every node that reaches one of starts within depth
// edges in g (including the starts themselves) into marked, which may be
// longer than g's node count.
func backwardReach(g *Graph, starts []NodeID, depth int, marked []bool) {
	visited := make([]bool, g.NumNodes())
	frontier := make([]NodeID, 0, len(starts))
	for _, v := range starts {
		if int(v) >= g.NumNodes() || visited[v] {
			continue
		}
		visited[v] = true
		marked[v] = true
		frontier = append(frontier, v)
	}
	for level := 0; level < depth && len(frontier) > 0; level++ {
		var next []NodeID
		for _, v := range frontier {
			for _, id := range g.InEdgeIDs(v) {
				src := g.Edge(id).Src
				if !visited[src] {
					visited[src] = true
					marked[src] = true
					next = append(next, src)
				}
			}
		}
		frontier = next
	}
}
