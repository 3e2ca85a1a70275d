package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeFile creates name in a fresh directory with the given contents.
func writeFile(t testing.TB, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestJournalSkipsGarbledLine: a complete line that does not decode, or one
// over the line bound, is skipped and the lines after it still replay. Files
// written before torn tails were cut hold such a line where a record was
// glued onto a torn write.
func TestJournalSkipsGarbledLine(t *testing.T) {
	long := `{"seq":9,"robot":"` + strings.Repeat("x", maxLine) + `"}` + "\n"
	path := writeFile(t, "movements.log", []byte(
		`{"seq":1,"robot":"r","value":1}`+"\n"+
			`{"seq":2,"robot":"r","de{"seq":3,"robot":"r","value":3}`+"\n"+
			long+
			`{"seq":4,"robot":"r","value":4}`+"\n"))
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var vals []int64
	for _, r := range s.Query(Filter{}) {
		vals = append(vals, r.Value)
	}
	if !reflect.DeepEqual(vals, []int64{1, 4}) {
		t.Fatalf("replayed values = %v, want [1 4]", vals)
	}
	if seq, err := s.Append(rec("r", "d", "a", 5, 500)); err != nil || seq != 5 {
		t.Fatalf("Append after garbled replay = %d, %v; want seq 5", seq, err)
	}

	kvPath := writeFile(t, "state.kv", []byte(
		`{"k":"a","v":"MQ==","n":1}`+"\n"+
			`{"k":"b","v":"half{"k":"c","v":"Mw==","n":1}`+"\n"+
			"\n"+
			`{"k":"d","v":"NA==","n":1}`+"\n"))
	kv, err := OpenKV(kvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for key, want := range map[string]string{"a": "1", "d": "4"} {
		if v, ok := kv.Get(key); !ok || string(v) != want {
			t.Errorf("Get(%q) = %q, %v; want %q", key, v, ok, want)
		}
	}
	if kv.Len() != 2 {
		t.Errorf("Len = %d, want 2", kv.Len())
	}
}

// TestJournalLineBound: a record whose line would exceed the bound is refused
// and leaves the journal openable; one just under the bound replays.
func TestJournalLineBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("big", make([]byte, 900<<10)); err == nil {
		t.Fatal("Put of a 900 KiB value succeeded; its line exceeds the bound")
	}
	if _, ok := kv.Get("big"); ok {
		t.Fatal("refused Put is visible")
	}
	// base64 grows the value by 4/3; leave room for the key and framing.
	fits := make([]byte, (maxLine-64)/4*3)
	if err := kv.Put("fits", fits); err != nil {
		t.Fatalf("Put under the bound: %v", err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenKV(path)
	if err != nil {
		t.Fatalf("reopen after an oversized Put: %v", err)
	}
	defer kv2.Close()
	if v, ok := kv2.Get("fits"); !ok || len(v) != len(fits) {
		t.Fatalf("reloaded value under the bound: %d bytes, %v", len(v), ok)
	}
	if _, ok := kv2.Get("big"); ok {
		t.Fatal("refused Put replayed")
	}

	spath := filepath.Join(t.TempDir(), "movements.log")
	s, err := Open(spath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec(strings.Repeat("r", maxLine), "d", "a", 1, 1)); err == nil {
		t.Fatal("Append of an oversized record succeeded")
	}
	if _, err := s.Append(rec("r", "d", "a", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(spath)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Query(Filter{}); len(got) != 1 || got[0].Value != 2 || got[0].Seq != 1 {
		t.Fatalf("reloaded = %+v, want the one record under the bound as seq 1", got)
	}
}

// copyFixture copies a checked-in journal into a fresh directory, so opening
// it never touches testdata.
func copyFixture(t *testing.T, name string) (path string, data []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return writeFile(t, name, data), data
}

// TestParentWrittenJournalsReplay: a movement log and a KV file written by the
// store before its journal was shared replay to the same contents and are
// left byte for byte as they were.
func TestParentWrittenJournalsReplay(t *testing.T) {
	path, data := copyFixture(t, "parent-movements.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Query(Filter{})
	if len(got) != 11 {
		t.Fatalf("replayed %d records, want 11", len(got))
	}
	for i, r := range got[:10] {
		seq := int64(i + 3)
		want := Record{Seq: seq, Robot: []string{"robot:2:1", "robot:1:1"}[seq%2],
			Device: []string{"motor:x", "motor:y", "pen"}[(seq-1)%3], Action: "rotate",
			Value: (seq-1)*7 - 20, AtMillis: 1000 + (seq-1)*250, DurMilli: (seq - 1) % 4}
		if r != want {
			t.Errorf("record %d = %+v, want %+v", i, r, want)
		}
	}
	if last := got[10]; last != (Record{Seq: 13, Robot: "robot:3:1", Device: "pen", Action: "down", AtMillis: 9000}) {
		t.Errorf("last record = %+v", last)
	}
	if seq, err := s.Append(rec("r", "d", "a", 1, 1)); err != nil || seq != 14 {
		t.Errorf("next Append = %d, %v; want seq 14", seq, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, data) {
		t.Error("opening the movement log rewrote its existing lines")
	}

	kvPath, kvData := copyFixture(t, "parent-state.kv")
	kv, err := OpenKV(kvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	want := map[string]struct {
		val string
		ver int64
	}{
		"Motor.pos/obj1": {"40", 5},
		"empty":          {"", 1},
		"bin":            {"\x00\x01\x02\xff", 1},
		"node/robot1":    {`{"id":"robot1","exts":{"hw":{"v":1,"lease":"L1","dur":60000,"deadline":1700000000000}}}`, 1},
	}
	if kv.Len() != len(want) {
		t.Errorf("Len = %d, want %d", kv.Len(), len(want))
	}
	for key, w := range want {
		if v, ok := kv.Get(key); !ok || string(v) != w.val || kv.Version(key) != w.ver {
			t.Errorf("%q = %q (present %v, version %d), want %q version %d", key, v, ok, kv.Version(key), w.val, w.ver)
		}
	}
	if _, ok := kv.Get("gone"); ok || kv.Version("gone") != 2 {
		t.Errorf("deleted key: present %v, version %d; want absent at version 2", ok, kv.Version("gone"))
	}
	if after, err := os.ReadFile(kvPath); err != nil || !bytes.Equal(after, kvData) {
		t.Errorf("opening the KV file changed it (%v)", err)
	}
}
