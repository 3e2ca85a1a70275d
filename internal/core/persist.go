package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/store"
)

// This file is the durable-state layer of the MIDAS lifecycle: both sides of
// the advertise→push→lease→revoke protocol checkpoint their runtime tables
// into a store.KV (the same journal file as the movement database) so a
// crashed base or node restarts into the state it held, instead of stranding
// extensions or re-pushing everything from scratch. All deadlines are
// persisted as absolute instants — replaying a grant after a crash longer
// than its lease window restores it expired, so recovery converges exactly
// like an uninterrupted run.
//
// Journal layout (one KV key per entity, JSON values):
//
//	base journal      node/<addr>  -> NodeRecord   (adapted/degraded node,
//	                                                per-extension grants)
//	receiver journal  ext/<name>   -> InstallRecord (signed extension, lease)
//
// Both are one Journal type over different records. They auto-compact, so the
// files stay proportional to the live state, not the update history.

const (
	nodeKeyPrefix = "node/"
	extKeyPrefix  = "ext/"
)

// GrantRecord is the durable view of one pushed extension's lease at the
// base: which version is out, under which lease, and when that lease lapses
// (absolute, so restarts never re-open expired windows).
type GrantRecord struct {
	Version        int    `json:"v"`
	LeaseID        string `json:"lease"`
	DurMillis      int64  `json:"dur"`
	DeadlineMillis int64  `json:"deadline"`
}

// NodeRecord is the durable view of one node the base has adapted (or, when
// Degraded, is holding for reconciliation once the node is reachable again).
type NodeRecord struct {
	ID       string                 `json:"id"`
	Degraded bool                   `json:"degraded,omitempty"`
	Exts     map[string]GrantRecord `json:"exts,omitempty"`
}

// InstallRecord is the durable view of one installed extension at the
// receiver: the signed payload (re-verified on replay), its originating base
// and the lease's absolute deadline.
type InstallRecord struct {
	Signed         SignedExtension `json:"signed"`
	BaseAddr       string          `json:"base"`
	LeaseID        string          `json:"lease"`
	DurMillis      int64           `json:"dur"`
	DeadlineMillis int64           `json:"deadline"`
}

// Journal is a durable table of JSON records of type T, one store.KV key
// (the table's key prefix plus the record's key) per record. A nil journal is
// a no-op, so bases and receivers persist unconditionally.
type Journal[T any] struct {
	kv     *store.KV
	prefix string
}

// BaseJournal persists a base's distribution state: one NodeRecord per node
// address.
type BaseJournal = Journal[NodeRecord]

// ReceiverJournal persists a receiver's installed-extension state: one
// InstallRecord per extension name.
type ReceiverJournal = Journal[InstallRecord]

// OpenBaseJournal opens dir/base-state.kv, creating the directory as needed
// and replaying any existing journal.
func OpenBaseJournal(dir string) (*BaseJournal, error) {
	return openJournal[NodeRecord](dir, "base-state.kv", nodeKeyPrefix)
}

// OpenReceiverJournal opens dir/receiver-state.kv, creating the directory as
// needed and replaying any existing journal.
func OpenReceiverJournal(dir string) (*ReceiverJournal, error) {
	return openJournal[InstallRecord](dir, "receiver-state.kv", extKeyPrefix)
}

func openJournal[T any](dir, file, prefix string) (*Journal[T], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: state dir %s: %w", dir, err)
	}
	kv, err := store.OpenKV(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	return &Journal[T]{kv: kv, prefix: prefix}, nil
}

// Put checkpoints one record.
func (j *Journal[T]) Put(key string, rec T) error {
	if j == nil {
		return nil
	}
	v, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("core: journal %s%s: %w", j.prefix, key, err)
	}
	return j.kv.Put(j.prefix+key, v)
}

// Get returns one record and whether it exists.
func (j *Journal[T]) Get(key string) (rec T, ok bool, err error) {
	if j == nil {
		return rec, false, nil
	}
	raw, ok := j.kv.Get(j.prefix + key)
	if !ok {
		return rec, false, nil
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return rec, false, fmt.Errorf("core: journal %s%s: %w", j.prefix, key, err)
	}
	return rec, true, nil
}

// Delete drops one record.
func (j *Journal[T]) Delete(key string) error {
	if j == nil {
		return nil
	}
	return j.kv.Delete(j.prefix + key)
}

// All returns every record with its key, sorted by key so replay order is
// deterministic.
func (j *Journal[T]) All() (keys []string, recs []T, err error) {
	if j == nil {
		return nil, nil, nil
	}
	all := j.kv.Keys()
	sort.Strings(all)
	for _, k := range all {
		key, ok := strings.CutPrefix(k, j.prefix)
		if !ok {
			continue
		}
		rec, ok, err := j.Get(key)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			keys = append(keys, key)
			recs = append(recs, rec)
		}
	}
	return keys, recs, nil
}

// Close closes the journal.
func (j *Journal[T]) Close() error {
	if j == nil {
		return nil
	}
	return j.kv.Close()
}
