// Package mobility simulates the physical world of the paper's scenarios:
// production halls (areas) covered by base stations, and mobile nodes
// (robots, PDAs) moving between them. Its range oracle drives the in-process
// transport's connectivity, so a node leaving a hall observably loses contact
// with the hall's base station — which is exactly what makes extension leases
// lapse and adaptations get revoked.
package mobility

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Point is a position in the 2-D world, in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Area is a circular coverage zone (a production hall) with a base station.
type Area struct {
	Name     string
	Center   Point
	Radius   float64
	BaseAddr string // transport address of the area's base station / lookup
}

// Contains reports whether p lies inside the area.
func (a Area) Contains(p Point) bool { return a.Center.Dist(p) <= a.Radius }

// TransitionFunc observes a node entering and/or leaving areas.
type TransitionFunc func(node string, entered, exited []string)

// World holds areas and nodes and answers connectivity queries.
type World struct {
	mu        sync.RWMutex
	areas     map[string]Area
	nodes     map[string]*nodeState
	addrOwner map[string]string // transport addr -> node name or area name
	nodeRange float64           // node-to-node radio range; 0 disables ad-hoc links
	listeners []TransitionFunc
}

type nodeState struct {
	name string
	addr string
	pos  Point
}

// NewWorld returns an empty world with ad-hoc (node-to-node) links disabled.
func NewWorld() *World {
	return &World{
		areas:     make(map[string]Area),
		nodes:     make(map[string]*nodeState),
		addrOwner: make(map[string]string),
	}
}

// SetNodeRange enables node-to-node links within r metres (0 disables).
func (w *World) SetNodeRange(r float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nodeRange = r
}

// AddArea registers an area. Its BaseAddr becomes anchored to the area.
func (w *World) AddArea(a Area) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.areas[a.Name]; dup {
		return fmt.Errorf("mobility: area %q exists", a.Name)
	}
	w.areas[a.Name] = a
	if a.BaseAddr != "" {
		w.addrOwner[a.BaseAddr] = a.Name
	}
	return nil
}

// AddNode places a node at pos with the given transport address.
func (w *World) AddNode(name, addr string, pos Point) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.nodes[name]; dup {
		return fmt.Errorf("mobility: node %q exists", name)
	}
	w.nodes[name] = &nodeState{name: name, addr: addr, pos: pos}
	w.addrOwner[addr] = name
	return nil
}

// OnTransition registers a listener for area enter/exit events caused by
// MoveNode.
func (w *World) OnTransition(fn TransitionFunc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.listeners = append(w.listeners, fn)
}

// MoveNode teleports the node to p, firing transition listeners for any area
// boundary crossings.
func (w *World) MoveNode(name string, p Point) error {
	w.mu.Lock()
	n, ok := w.nodes[name]
	if !ok {
		w.mu.Unlock()
		return fmt.Errorf("mobility: unknown node %q", name)
	}
	before := w.areasContainingLocked(n.pos)
	n.pos = p
	after := w.areasContainingLocked(p)
	listeners := append([]TransitionFunc(nil), w.listeners...)
	w.mu.Unlock()

	entered, exited := diff(before, after)
	if len(entered) == 0 && len(exited) == 0 {
		return nil
	}
	for _, fn := range listeners {
		fn(name, entered, exited)
	}
	return nil
}

// NodePos returns the node's current position.
func (w *World) NodePos(name string) (Point, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n, ok := w.nodes[name]
	if !ok {
		return Point{}, false
	}
	return n.pos, true
}

// InArea reports whether the node is inside the named area.
func (w *World) InArea(node, area string) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	n, ok := w.nodes[node]
	a, ok2 := w.areas[area]
	return ok && ok2 && a.Contains(n.pos)
}

func (w *World) areasContainingLocked(p Point) []string {
	var out []string
	for name, a := range w.areas {
		if a.Contains(p) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Linked is the connectivity oracle for the in-process transport:
//   - base/infrastructure to base/infrastructure: always linked (wired)
//   - node to base: linked iff the node is inside the base's area
//   - node to node: linked iff both within the ad-hoc radio range
//   - addresses unknown to the world are treated as wired infrastructure
func (w *World) Linked(fromAddr, toAddr string) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	fromNode, fromIsNode := w.nodeByAddrLocked(fromAddr)
	toNode, toIsNode := w.nodeByAddrLocked(toAddr)
	switch {
	case !fromIsNode && !toIsNode:
		return true
	case fromIsNode && toIsNode:
		return w.nodeRange > 0 && fromNode.pos.Dist(toNode.pos) <= w.nodeRange
	case fromIsNode:
		return w.nodeInsideAreaOfAddrLocked(fromNode, toAddr)
	default:
		return w.nodeInsideAreaOfAddrLocked(toNode, fromAddr)
	}
}

// LinkFunc adapts Linked for transport.InProc.SetLinkFunc.
func (w *World) LinkFunc() func(from, to string) bool {
	return w.Linked
}

func (w *World) nodeByAddrLocked(addr string) (*nodeState, bool) {
	owner, ok := w.addrOwner[addr]
	if !ok {
		return nil, false
	}
	n, isNode := w.nodes[owner]
	return n, isNode
}

func (w *World) nodeInsideAreaOfAddrLocked(n *nodeState, baseAddr string) bool {
	owner, ok := w.addrOwner[baseAddr]
	if !ok {
		return true // unknown infrastructure: wired
	}
	a, isArea := w.areas[owner]
	if !isArea {
		return false
	}
	return a.Contains(n.pos)
}

func diff(before, after []string) (entered, exited []string) {
	inBefore := make(map[string]bool, len(before))
	for _, a := range before {
		inBefore[a] = true
	}
	inAfter := make(map[string]bool, len(after))
	for _, a := range after {
		inAfter[a] = true
	}
	for _, a := range after {
		if !inBefore[a] {
			entered = append(entered, a)
		}
	}
	for _, a := range before {
		if !inAfter[a] {
			exited = append(exited, a)
		}
	}
	return entered, exited
}
