package store

import "sync"

// KV is a small versioned key-value store. The orthogonal-persistence
// extension snapshots intercepted field writes into it, and the transaction
// manager uses its versions for first-committer-wins validation.
type KV struct {
	mu       sync.RWMutex
	data     map[string][]byte
	versions map[string]int64

	j      *journal // nil for in-memory KVs
	closed bool
	lines  int // journal lines since the last compaction, replayed ones included
}

// compactEvery bounds a file-backed KV's growth: once its journal holds this
// many lines since the last compaction, counting those replayed at open, the
// KV rewrites it to one line per live key. Callers that update the same keys
// forever (field snapshots, lease-deadline checkpoints) keep a file
// proportional to the live state, however often they restart.
const compactEvery = 4096

type kvEntry struct {
	Key     string `json:"k"`
	Value   []byte `json:"v"` // nil means delete
	Version int64  `json:"n"`
}

// NewKV returns a volatile in-memory KV.
func NewKV() *KV {
	return &KV{data: make(map[string][]byte), versions: make(map[string]int64)}
}

// OpenKV returns a KV journalled to path, replaying existing entries with
// the same torn-write rules as Open.
func OpenKV(path string) (*KV, error) {
	kv := NewKV()
	j, err := openJournal(path, func(e kvEntry) {
		kv.applyLocked(e)
		kv.lines++
	})
	if err != nil {
		return nil, err
	}
	kv.j = j
	return kv, nil
}

func (kv *KV) applyLocked(e kvEntry) {
	if e.Value == nil {
		delete(kv.data, e.Key)
	} else {
		kv.data[e.Key] = e.Value
	}
	kv.versions[e.Key] = e.Version
}

// Put stores value under key, bumping its version.
func (kv *KV) Put(key string, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	// Copy via make so an empty (but present) value stays non-nil — nil marks
	// deletion in the journal.
	cp := make([]byte, len(value))
	copy(cp, value)
	return kv.writeLocked(kvEntry{Key: key, Value: cp, Version: kv.versions[key] + 1})
}

// Delete removes key.
func (kv *KV) Delete(key string) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	return kv.writeLocked(kvEntry{Key: key, Version: kv.versions[key] + 1})
}

// writeLocked journals and applies e, then compacts once the journal has
// grown by compactEvery lines. Callers hold kv.mu.
func (kv *KV) writeLocked(e kvEntry) error {
	if kv.j == nil {
		kv.applyLocked(e)
		return nil
	}
	if err := kv.j.append(e); err != nil {
		return err
	}
	kv.applyLocked(e)
	kv.lines++
	if kv.lines < compactEvery {
		return nil
	}
	kv.lines = 0
	return kv.compactLocked()
}

// Get returns the value and whether the key exists. The returned slice is a
// copy.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Version returns the key's current version (0 when never written).
func (kv *KV) Version(key string) int64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.versions[key]
}

// Len returns the number of live keys.
//
//lint:allow shipped (test seam: store tests count live keys after replay)
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.data)
}

// Keys returns the live keys, unordered.
func (kv *KV) Keys() []string {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	out := make([]string, 0, len(kv.data))
	for k := range kv.data {
		out = append(out, k)
	}
	return out
}

// compactLocked rewrites the journal to one entry per live key, atomically
// replacing the old file. Versions are preserved so optimistic transactions
// keep validating correctly across compaction. Callers hold kv.mu.
func (kv *KV) compactLocked() error {
	if kv.j == nil {
		return nil // in-memory KV has nothing to compact
	}
	live := make([]kvEntry, 0, len(kv.data))
	for key, val := range kv.data {
		live = append(live, kvEntry{Key: key, Value: val, Version: kv.versions[key]})
	}
	return rewrite(kv.j, live)
}

// Close closes the journal (no-op for in-memory KVs).
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	kv.closed = true
	return kv.j.close()
}
