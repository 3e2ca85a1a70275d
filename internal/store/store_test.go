package store

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func rec(robot, device, action string, value, at int64) Record {
	return Record{Robot: robot, Device: device, Action: action, Value: value, AtMillis: at}
}

func TestAppendQuery(t *testing.T) {
	s := NewMemory()
	seed := []Record{
		rec("robot:1:1", "motor:x", "rotate", 30, 100),
		rec("robot:1:1", "motor:y", "rotate", -10, 200),
		rec("robot:2:1", "motor:x", "rotate", 5, 300),
		rec("robot:1:1", "motor:x", "stop", 0, 400),
	}
	for _, r := range seed {
		if _, err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}

	all := s.Query(Filter{})
	if len(all) != 4 {
		t.Fatalf("Query(all) = %d", len(all))
	}
	for i, r := range all {
		if r.Seq != int64(i+1) {
			t.Errorf("seq[%d] = %d", i, r.Seq)
		}
	}
	r1 := s.Query(Filter{Robot: "robot:1:1"})
	if len(r1) != 3 {
		t.Errorf("robot filter = %d", len(r1))
	}
	mx := s.Query(Filter{Robot: "robot:1:1", Device: "motor:x"})
	if len(mx) != 2 {
		t.Errorf("device filter = %d", len(mx))
	}
	rot := s.Query(Filter{Action: "rotate"})
	if len(rot) != 3 {
		t.Errorf("action filter = %d", len(rot))
	}
	window := s.Query(Filter{Since: 200, Until: 400})
	if len(window) != 2 {
		t.Errorf("time filter = %d: %v", len(window), window)
	}
	if len(s.byRobot) != 2 {
		t.Errorf("indexed robots = %d, want 2", len(s.byRobot))
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reloaded Len = %d", s2.Len())
	}
	got := s2.Query(Filter{Robot: "r1"})
	for i, r := range got {
		if r.Value != int64(i) {
			t.Errorf("value[%d] = %d", i, r.Value)
		}
	}
	// Appending after reload continues the sequence.
	seq, err := s2.Append(rec("r1", "motor:x", "rotate", 99, 9900))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Errorf("continued seq = %d, want 11", seq)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s := NewMemory()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec("r", "d", "a", 1, 1)); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestKVPutGetDelete(t *testing.T) {
	kv := NewKV()
	if _, ok := kv.Get("missing"); ok {
		t.Error("missing key found")
	}
	if err := kv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok := kv.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if kv.Version("a") != 1 {
		t.Errorf("version = %d", kv.Version("a"))
	}
	if err := kv.Put("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if kv.Version("a") != 2 {
		t.Errorf("version after update = %d", kv.Version("a"))
	}
	if err := kv.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.Get("a"); ok {
		t.Error("deleted key found")
	}
	if kv.Version("a") != 3 {
		t.Errorf("version after delete = %d", kv.Version("a"))
	}
}

func TestKVPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("Motor.pos/obj1", []byte("42")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Delete("gone"); err != nil {
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
	v, ok := kv2.Get("Motor.pos/obj1")
	if !ok || string(v) != "42" {
		t.Fatalf("reloaded = %q, %v", v, ok)
	}
	if _, ok := kv2.Get("gone"); ok {
		t.Error("deleted key survived reload")
	}
	if kv2.Len() != 1 {
		t.Errorf("Len = %d", kv2.Len())
	}
}

func TestKVGetReturnsCopy(t *testing.T) {
	kv := NewKV()
	if err := kv.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _ := kv.Get("k")
	v[0] = 'X'
	v2, _ := kv.Get("k")
	if string(v2) != "abc" {
		t.Error("Get leaked internal buffer")
	}
}

func TestKVRoundTripProperty(t *testing.T) {
	kv := NewKV()
	if err := quick.Check(func(key string, val []byte) bool {
		if err := kv.Put(key, val); err != nil {
			return false
		}
		got, ok := kv.Get(key)
		if !ok || len(got) != len(val) {
			return false
		}
		for i := range val {
			if got[i] != val[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOpenToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "movements.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(rec("r", "d", "a", 1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append half a JSON line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"robot":"r","de`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Errorf("Len = %d, want 1 (torn line dropped)", s2.Len())
	}
	// Records appended after the restart start a line of their own and
	// survive the next restart.
	for v := int64(2); v <= 3; v++ {
		if _, err := s2.Append(rec("r", "d", "a", v, v*100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got := s3.Query(Filter{})
	if len(got) != 3 {
		t.Fatalf("after second restart: %d records, want 3: %+v", len(got), got)
	}
	for i, r := range got {
		if r.Value != int64(i+1) || r.Seq != int64(i+1) {
			t.Errorf("record %d = %+v", i, r)
		}
	}
}

func TestKVOpenToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.kv")
	kv, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	kv2, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := kv2.Get("k"); !ok || string(v) != "v" {
		t.Errorf("reload = %q, %v", v, ok)
	}
	// A key put after the restart survives the next restart.
	if err := kv2.Put("k2", []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3, err := OpenKV(path)
	if err != nil {
		t.Fatal(err)
	}
	defer kv3.Close()
	if v, ok := kv3.Get("k"); !ok || string(v) != "v" {
		t.Errorf("second reload k = %q, %v", v, ok)
	}
	if v, ok := kv3.Get("k2"); !ok || string(v) != "after" {
		t.Errorf("second reload k2 = %q, %v; want the put after the first restart", v, ok)
	}
}

func TestKVKeysAndDoubleClose(t *testing.T) {
	kv := NewKV()
	if err := kv.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	keys := kv.Keys()
	if len(keys) != 2 {
		t.Errorf("Keys = %v", keys)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := kv.Put("c", nil); err != ErrClosed {
		t.Errorf("Put after close = %v", err)
	}
	if err := kv.Delete("a"); err != ErrClosed {
		t.Errorf("Delete after close = %v", err)
	}
}

func TestStoreCompactAfterClose(t *testing.T) {
	s := NewMemory()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(0); err != ErrClosed {
		t.Errorf("Compact after close = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}
