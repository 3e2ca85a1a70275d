package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay: whatever bytes a journal file starts with, Open and
// OpenKV come up without panicking, and a record written after the open
// survives a close and reopen.
func FuzzJournalReplay(f *testing.F) {
	for _, name := range []string{"parent-movements.log", "parent-state.kv"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-5])
	}
	f.Add([]byte(`{"seq":1,"robot":"r"}` + "\n" + `{"seq":2,"ro`))
	f.Add([]byte(`{"k":"probe","v":null,"n":7}` + "\n" + `{"k":"x`))
	f.Add([]byte("\n\n{}\n\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "movements.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(rec("probe-robot", "probe", "a", 42, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range s2.Query(Filter{Robot: "probe-robot", Device: "probe"}) {
			found = found || r.Value == 42
		}
		s2.Close()
		if !found {
			t.Fatal("record appended after open lost at reopen")
		}

		kvPath := filepath.Join(dir, "state.kv")
		if err := os.WriteFile(kvPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		kv, err := OpenKV(kvPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := kv.Put("probe", []byte("42")); err != nil {
			t.Fatal(err)
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		kv2, err := OpenKV(kvPath)
		if err != nil {
			t.Fatal(err)
		}
		defer kv2.Close()
		if v, ok := kv2.Get("probe"); !ok || string(v) != "42" {
			t.Fatalf("key put after open = %q, %v at reopen", v, ok)
		}
	})
}
