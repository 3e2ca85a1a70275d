package core

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
)

// nodeTable shards the base's node state (adapted and degraded maps) by a
// consistent hash of the node address, so adapt, renewal and reconcile
// traffic for different nodes proceeds under different locks. Lock order:
// a shard's mu may be held while taking b.mu or the scheduler's lock, never
// the other way around; no path holds two shard locks at once.
type nodeTable struct {
	shards []nodeShard
	// nAdapted and nDegraded are the sizes of every shard's adapted and
	// degraded maps together. They change with the maps, under the shard's
	// lock, so reading them takes no lock at all.
	nAdapted, nDegraded atomic.Int64
}

// nodeShard's maps change only through setAdapted, dropAdapted, setDegraded
// and dropDegraded, with mu held, so the table's counts follow them.
type nodeShard struct {
	mu       sync.Mutex
	adapted  map[string]*adaptedNode // by node addr
	degraded map[string]string       // node addr -> node id
	t        *nodeTable
}

func newNodeTable(n int) *nodeTable {
	if n <= 0 {
		n = 8
	}
	t := &nodeTable{shards: make([]nodeShard, n)}
	for i := range t.shards {
		t.shards[i].adapted = make(map[string]*adaptedNode)
		t.shards[i].degraded = make(map[string]string)
		t.shards[i].t = t
	}
	return t
}

// setAdapted records n as the adapted node at addr. s.mu must be held.
func (s *nodeShard) setAdapted(addr string, n *adaptedNode) {
	if _, ok := s.adapted[addr]; !ok {
		s.t.nAdapted.Add(1)
	}
	s.adapted[addr] = n
}

// dropAdapted forgets the adapted node at addr, if any. s.mu must be held.
func (s *nodeShard) dropAdapted(addr string) {
	if _, ok := s.adapted[addr]; ok {
		delete(s.adapted, addr)
		s.t.nAdapted.Add(-1)
	}
}

// setDegraded parks the node id at addr as degraded. s.mu must be held.
func (s *nodeShard) setDegraded(addr, id string) {
	if _, ok := s.degraded[addr]; !ok {
		s.t.nDegraded.Add(1)
	}
	s.degraded[addr] = id
}

// dropDegraded forgets the degraded node at addr, if any. s.mu must be held.
func (s *nodeShard) dropDegraded(addr string) {
	if _, ok := s.degraded[addr]; ok {
		delete(s.degraded, addr)
		s.t.nDegraded.Add(-1)
	}
}

func (t *nodeTable) shard(addr string) *nodeShard {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return &t.shards[h.Sum32()%uint32(len(t.shards))]
}

// nodeEntry is one row of a node-table snapshot: the adapted node n at
// addr, or, when n is nil, the degraded node id.
type nodeEntry struct {
	addr string
	id   string
	n    *adaptedNode
}

// snapshot lists every adapted and degraded node, sorted by address. It
// takes one shard lock at a time and never b.mu.
func (t *nodeTable) snapshot() []nodeEntry {
	out := make([]nodeEntry, 0, t.nAdapted.Load()+t.nDegraded.Load())
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for addr, n := range s.adapted {
			out = append(out, nodeEntry{addr: addr, id: n.id, n: n})
		}
		for addr, id := range s.degraded {
			out = append(out, nodeEntry{addr: addr, id: id})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// clear empties every shard and returns the nodes that were adapted.
func (t *nodeTable) clear() []*adaptedNode {
	var out []*adaptedNode
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, n := range s.adapted {
			out = append(out, n)
		}
		t.nAdapted.Add(-int64(len(s.adapted)))
		t.nDegraded.Add(-int64(len(s.degraded)))
		s.adapted = make(map[string]*adaptedNode)
		s.degraded = make(map[string]string)
		s.mu.Unlock()
	}
	return out
}
