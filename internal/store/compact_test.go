package store

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestStoreCompactPrunesOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movements.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if _, err := s.Append(rec("r1", "motor:x", "rotate", i, i*100)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.Stat(path)

	if err := s.Compact(500); err != nil { // keep AtMillis >= 500
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("journal did not shrink: %d -> %d", before.Size(), after.Size())
	}

	// The store keeps working and persisting after compaction.
	if _, err := s.Append(rec("r1", "motor:y", "rotate", 99, 9900)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 6 {
		t.Fatalf("reloaded Len = %d, want 6", s2.Len())
	}
	if got := s2.Query(Filter{Device: "motor:y"}); len(got) != 1 || got[0].Value != 99 {
		t.Errorf("post-compact append lost: %v", got)
	}
	if got := s2.Query(Filter{Since: 0, Until: 500}); len(got) != 0 {
		t.Errorf("pruned records survived: %v", got)
	}
}

func TestStoreCompactInMemory(t *testing.T) {
	s := NewMemory()
	for i := int64(0); i < 4; i++ {
		if _, err := s.Append(rec("r", "d", "a", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	// Index rebuilt correctly.
	if got := s.Query(Filter{Robot: "r"}); len(got) != 2 {
		t.Errorf("query after compact = %v", got)
	}
}

func TestKVCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: many updates to few keys.
	for i := 0; i < 50; i++ {
		if err := kv.Put("hot", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Put("cold", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete("cold"); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)

	if err := compact(kv); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("kv journal did not shrink: %d -> %d", before.Size(), after.Size())
	}
	// Versions survive compaction (transaction validation depends on them).
	if kv.Version("hot") != 50 {
		t.Errorf("version = %d", kv.Version("hot"))
	}
	if err := kv.Put("hot", []byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	v, ok := kv2.Get("hot")
	if !ok || string(v) != "post" {
		t.Errorf("reloaded hot = %q, %v", v, ok)
	}
	if kv2.Version("hot") != 51 {
		t.Errorf("reloaded version = %d", kv2.Version("hot"))
	}
	if _, ok := kv2.Get("cold"); ok {
		t.Error("deleted key resurrected by compaction")
	}
}

// compact runs the journal rewrite that a file-backed KV otherwise triggers
// every compactEvery lines.
func compact(kv *KV) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return kv.compactLocked()
}

func TestKVCompactInMemoryNoop(t *testing.T) {
	kv := NewKV()
	if err := kv.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := compact(kv); err != nil {
		t.Fatal(err)
	}
	if v, ok := kv.Get("k"); !ok || string(v) != "v" {
		t.Error("in-memory compact damaged data")
	}
}

// TestKVAutoCompact: once its journal has grown by compactEvery lines, the
// KV rewrites it to one line per live key without losing state.
func TestKVAutoCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "auto.kv")
	kv, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	const writes = compactEvery + 25
	for i := 0; i < writes; i++ {
		if err := kv.Put("hot", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	// The compaction at write compactEvery left one line; 25 writes followed.
	if lines := journalLines(t, path); lines != 26 {
		t.Fatalf("journal has %d lines after %d writes, want 26", lines, writes)
	}
	kv2, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	v, ok := kv2.Get("hot")
	if want := byte((writes - 1) % 256); !ok || v[0] != want {
		t.Fatalf("reloaded value = %v, %v; want [%d]", v, ok, want)
	}
	if kv2.Version("hot") != writes {
		t.Fatalf("version = %d, want %d (preserved across compaction)", kv2.Version("hot"), writes)
	}
}

// TestKVFileStaysBounded: 10 000 puts of one key, split across restarts,
// leave at most compactEvery journal lines, and the file replays to the last
// value. Replayed lines count toward the bound, so a KV that restarts before
// each run reaches compactEvery writes still compacts.
func TestKVFileStaysBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.kv")
	const puts, perRun = 10000, 3000
	for done := 0; done < puts; {
		kv, err := OpenKV(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perRun && done < puts; i++ {
			if err := kv.Put("field", []byte(strconv.Itoa(done))); err != nil {
				t.Fatal(err)
			}
			done++
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		if lines := journalLines(t, path); lines > compactEvery {
			t.Fatalf("journal has %d lines after %d puts, want <= %d", lines, done, compactEvery)
		}
	}
	kv, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if v, ok := kv.Get("field"); !ok || string(v) != strconv.Itoa(puts-1) {
		t.Fatalf("replayed value = %q, %v; want %q", v, ok, strconv.Itoa(puts-1))
	}
}

func journalLines(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(raw), "\n")
}
