package mobility

import (
	"fmt"
	"sync"
	"time"
)

// Mover advances nodes along waypoint routes at fixed speeds — the motion
// model behind scenarios like "the robot crosses the yard from hall-1 to
// hall-2". Each Step moves every routed node and fires the world's
// transition listeners through MoveNode, so connectivity, discovery and
// lease behaviour all follow automatically.
type Mover struct {
	world *World

	mu     sync.Mutex
	routes map[string]*route
}

type route struct {
	waypoints []Point
	speed     float64 // metres per second
	next      int
	loop      bool
}

// NewMover returns a mover over w.
func NewMover(w *World) *Mover {
	return &Mover{world: w, routes: make(map[string]*route)}
}

// SetRoute assigns node a waypoint route walked at speed m/s. With loop the
// route repeats from the first waypoint; otherwise the node stops at the
// last one.
func (m *Mover) SetRoute(node string, waypoints []Point, speed float64, loop bool) error {
	if _, ok := m.world.NodePos(node); !ok {
		return fmt.Errorf("mobility: unknown node %q", node)
	}
	if len(waypoints) == 0 {
		return fmt.Errorf("mobility: route needs waypoints")
	}
	if speed <= 0 {
		return fmt.Errorf("mobility: speed must be positive")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes[node] = &route{
		waypoints: append([]Point(nil), waypoints...),
		speed:     speed,
		loop:      loop,
	}
	return nil
}

// Moving reports whether the node has an active route.
func (m *Mover) Moving(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.routes[node]
	return ok
}

// Step advances every routed node by dt of simulated time. Nodes that reach
// the end of a non-looping route have their route cleared.
func (m *Mover) Step(dt time.Duration) {
	m.mu.Lock()
	type pending struct {
		node string
		to   Point
		done bool
	}
	var moves []pending
	for node, r := range m.routes {
		pos, _ := m.world.NodePos(node) // SetRoute checked the node exists
		budget := r.speed * dt.Seconds()
		done := false
		for budget > 0 {
			target := r.waypoints[r.next]
			d := pos.Dist(target)
			if d <= budget {
				pos = target
				budget -= d
				r.next++
				if r.next >= len(r.waypoints) {
					if r.loop {
						r.next = 0
					} else {
						done = true
						break
					}
				}
				continue
			}
			// Partial step toward the target.
			frac := budget / d
			pos = Point{
				X: pos.X + (target.X-pos.X)*frac,
				Y: pos.Y + (target.Y-pos.Y)*frac,
			}
			budget = 0
		}
		moves = append(moves, pending{node: node, to: pos, done: done})
	}
	for _, mv := range moves {
		if mv.done {
			delete(m.routes, mv.node)
		}
	}
	m.mu.Unlock()

	// Apply moves outside the lock: MoveNode fires transition listeners.
	for _, mv := range moves {
		_ = m.world.MoveNode(mv.node, mv.to)
	}
}
