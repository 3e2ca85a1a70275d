// Package store is the base-station database of the paper's prototype: the
// hardware-monitoring extension posts every motor action to the base, which
// persists it here; client tools then query, replay, replicate or analyse the
// movement history (Fig. 3b and Fig. 6). The implementation is an append-only
// record log with an in-memory index, optionally journalled to disk.
package store

import (
	"errors"
	"sync"
)

// Record is one logged action, e.g. a motor command.
type Record struct {
	Seq      int64  `json:"seq"` // assigned by the store on append
	Robot    string `json:"robot"`
	Device   string `json:"device"` // e.g. "motor:x"
	Action   string `json:"action"` // e.g. "rotate"
	Value    int64  `json:"value"`
	AtMillis int64  `json:"atMillis"`  // wall-clock time of the command
	DurMilli int64  `json:"durMillis"` // command duration
}

// Filter selects records. Zero fields match everything; Since/Until bound
// AtMillis inclusively/exclusively.
type Filter struct {
	Robot  string
	Device string
	Action string
	Since  int64 // inclusive; 0 = unbounded
	Until  int64 // exclusive; 0 = unbounded
}

func (f Filter) matches(r Record) bool {
	if f.Robot != "" && r.Robot != f.Robot {
		return false
	}
	if f.Device != "" && r.Device != f.Device {
		return false
	}
	if f.Action != "" && r.Action != f.Action {
		return false
	}
	if f.Since != 0 && r.AtMillis < f.Since {
		return false
	}
	if f.Until != 0 && r.AtMillis >= f.Until {
		return false
	}
	return true
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("store: closed")

// Store is an append-only record log. The zero value is not usable; use
// NewMemory or Open.
type Store struct {
	mu      sync.RWMutex
	recs    []Record
	nextSeq int64
	byRobot map[string][]int // indexes into recs

	j      *journal // nil for in-memory stores
	closed bool
}

// NewMemory returns a volatile in-memory store.
func NewMemory() *Store {
	return &Store{nextSeq: 1, byRobot: make(map[string][]int)}
}

// Open returns a store journalled to path, loading any existing records. A
// record torn by a crash mid-write is dropped and one that does not decode is
// skipped; every other record loads.
func Open(path string) (*Store, error) {
	s := NewMemory()
	j, err := openJournal(path, s.index)
	if err != nil {
		return nil, err
	}
	s.j = j
	return s, nil
}

// Append assigns a sequence number, persists (when journalled) and indexes r.
func (s *Store) Append(r Record) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if r.Seq == 0 {
		r.Seq = s.nextSeq
	}
	if s.j != nil {
		if err := s.j.append(r); err != nil {
			return 0, err
		}
	}
	s.index(r)
	return r.Seq, nil
}

// index adds r to the in-memory log, numbering it when it has no sequence
// number yet. Callers hold s.mu or own s exclusively.
func (s *Store) index(r Record) {
	if r.Seq == 0 {
		r.Seq = s.nextSeq
	}
	if r.Seq >= s.nextSeq {
		s.nextSeq = r.Seq + 1
	}
	s.byRobot[r.Robot] = append(s.byRobot[r.Robot], len(s.recs))
	s.recs = append(s.recs, r)
}

// Query returns all records matching f in append order.
func (s *Store) Query(f Filter) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	if f.Robot != "" {
		for _, i := range s.byRobot[f.Robot] {
			if f.matches(s.recs[i]) {
				out = append(out, s.recs[i])
			}
		}
		return out
	}
	for _, r := range s.recs {
		if f.matches(r) {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Compact rewrites the journal to contain only the live state, atomically
// replacing the old file. It drops records older than keepSince (AtMillis; 0
// keeps everything, making Compact a defragmenting rewrite); for long-running
// base stations this is how the movement history is pruned after it has been
// archived or replayed.
func (s *Store) Compact(keepSince int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var kept []Record
	for _, r := range s.recs {
		if keepSince == 0 || r.AtMillis >= keepSince {
			kept = append(kept, r)
		}
	}
	if err := rewrite(s.j, kept); err != nil {
		return err
	}
	s.recs = nil
	s.byRobot = make(map[string][]int, len(s.byRobot))
	for _, r := range kept {
		s.index(r)
	}
	return nil
}

// Close closes the journal (no-op for in-memory stores).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.j.close()
}
