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

// adaptedAddrs lists adapted node addresses, sorted.
func (t *nodeTable) adaptedAddrs() []string {
	var out []string
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for addr := range s.adapted {
			out = append(out, addr)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// degradedAddrs lists degraded node addresses, sorted.
func (t *nodeTable) degradedAddrs() []string {
	var out []string
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for addr := range s.degraded {
			out = append(out, addr)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// allAdapted snapshots every adapted node.
func (t *nodeTable) allAdapted() []*adaptedNode {
	var out []*adaptedNode
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for _, n := range s.adapted {
			out = append(out, n)
		}
		s.mu.Unlock()
	}
	return out
}

// get returns the adapted node at addr, or nil.
func (t *nodeTable) get(addr string) *adaptedNode {
	s := t.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adapted[addr]
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

// perShardTargets groups adapted+degraded addresses by shard, each group
// sorted — the unit of parallelism for reconcile rounds.
func (t *nodeTable) perShardTargets() [][]string {
	out := make([][]string, len(t.shards))
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		group := make([]string, 0, len(s.adapted)+len(s.degraded))
		for addr := range s.adapted {
			group = append(group, addr)
		}
		for addr := range s.degraded {
			group = append(group, addr)
		}
		s.mu.Unlock()
		sort.Strings(group)
		out[i] = group
	}
	return out
}
