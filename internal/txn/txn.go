// Package txn is a small optimistic transaction manager over the store.KV,
// supporting the "ad-hoc transactions for mobile services" extension the
// paper cites as one of the functionality extensions measured in §4.6:
// transactions buffer writes, record read versions, and commit with
// first-committer-wins validation.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/store"
)

// Errors returned by Commit and post-finish operations.
var (
	// ErrConflict means a read or written key changed under the transaction.
	ErrConflict = errors.New("txn: conflict, transaction aborted")
	// ErrFinished means the transaction was already committed or aborted.
	ErrFinished = errors.New("txn: already finished")
)

// Manager creates transactions over one KV and serialises commits.
type Manager struct {
	kv *store.KV

	mu        sync.Mutex
	commits   int64
	conflicts int64
}

// NewManager returns a manager over kv.
func NewManager(kv *store.KV) *Manager {
	return &Manager{kv: kv}
}

// Stats reports total commits and conflicts.
//
//lint:allow shipped (paper surface: the ad-hoc transactions E3 prices (§4.6); the shipped txn extension writes blind, tests read the conflict count)
func (m *Manager) Stats() (commits, conflicts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits, m.conflicts
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	return &Txn{
		m:      m,
		reads:  make(map[string]int64),
		writes: make(map[string][]byte),
	}
}

// Txn is one in-flight transaction. Not safe for concurrent use by multiple
// goroutines.
type Txn struct {
	m        *Manager
	reads    map[string]int64  // key -> version observed
	writes   map[string][]byte // nil value = delete
	finished bool
}

// Get reads a key, observing either the transaction's own pending write or
// the underlying store (recording the version for validation).
//
//lint:allow shipped (paper surface: the ad-hoc transactions E3 prices (§4.6); the shipped txn extension writes blind, reads validated at commit make it a transaction)
func (t *Txn) Get(key string) ([]byte, bool, error) {
	if t.finished {
		return nil, false, ErrFinished
	}
	if v, ok := t.writes[key]; ok {
		if v == nil {
			return nil, false, nil
		}
		return append([]byte(nil), v...), true, nil
	}
	v, ok := t.m.kv.Get(key)
	t.reads[key] = t.m.kv.Version(key)
	return v, ok, nil
}

// Put buffers a write.
func (t *Txn) Put(key string, value []byte) error {
	if t.finished {
		return ErrFinished
	}
	t.writes[key] = append([]byte(nil), value...)
	return nil
}

// Delete buffers a deletion.
//
//lint:allow shipped (paper surface: the ad-hoc transactions E3 prices (§4.6); the shipped txn extension writes blind, a transaction may also delete)
func (t *Txn) Delete(key string) error {
	if t.finished {
		return ErrFinished
	}
	t.writes[key] = nil
	return nil
}

// Commit validates read versions and applies buffered writes atomically with
// respect to other transactions from the same manager.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrFinished
	}
	t.finished = true

	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	// Validation: every key read (and not overwritten before reading) must
	// still be at the observed version; keys written blind are not checked.
	for key, ver := range t.reads {
		if t.m.kv.Version(key) != ver {
			t.m.conflicts++
			return fmt.Errorf("%w: key %q", ErrConflict, key)
		}
	}
	for key, val := range t.writes {
		var err error
		if val == nil {
			err = t.m.kv.Delete(key)
		} else {
			err = t.m.kv.Put(key, val)
		}
		if err != nil {
			return err
		}
	}
	t.m.commits++
	return nil
}

// Abort discards buffered writes.
//
//lint:allow shipped (paper surface: the ad-hoc transactions E3 prices (§4.6); the shipped txn extension writes blind, a transaction may also abort)
func (t *Txn) Abort() {
	t.finished = true
	t.writes = nil
	t.reads = nil
}
