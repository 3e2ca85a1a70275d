package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// maxLine bounds one journal line, its newline included. Appends refuse a
// longer record and replay accepts every line up to it, so whatever a store
// writes it can read back.
const maxLine = 1 << 20

// journal is the durable half of Store and KV: a JSON-lines file replayed on
// open, appended one flushed line per write and rewritten atomically through
// a temporary file. In-memory stores hold a nil journal, for which rewrite
// and close are no-ops; callers check for nil before append, so an in-memory
// write never boxes its record.
type journal struct {
	f *os.File
}

// openJournal opens path, creating it as needed, and replays every complete
// line that decodes as a T into apply, in file order. A line that does not
// decode, or is longer than maxLine, is skipped and replay goes on. An
// unterminated final line is a write torn by a crash: it is cut off the file,
// so the next append starts a line of its own instead of gluing onto it.
func openJournal[T any](path string, apply func(T)) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	r := bufio.NewReader(f)
	var line []byte          // the line being read, kept while within maxLine
	var read, complete int64 // bytes read; bytes up to the last newline
	for {
		chunk, err := r.ReadSlice('\n')
		read += int64(len(chunk))
		fits := read-complete <= maxLine
		if fits {
			line = append(line, chunk...)
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: read %s: %w", path, err)
		}
		var v T
		if fits && json.Unmarshal(line, &v) == nil {
			apply(v)
		}
		complete = read
		line = line[:0]
	}
	if read > complete {
		if err := f.Truncate(complete); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: cut torn tail of %s: %w", path, err)
		}
	}
	return &journal{f: f}, nil
}

// encodeLine marshals v as one newline-terminated journal line.
func encodeLine(v any) ([]byte, error) {
	line, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: marshal: %w", err)
	}
	if len(line)+1 > maxLine {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte line bound", len(line)+1, maxLine)
	}
	return append(line, '\n'), nil
}

// append writes v as one line. A record over the line bound is refused and
// nothing is written.
func (j *journal) append(v any) error {
	line, err := encodeLine(v)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	return nil
}

// rewrite atomically replaces the journal with one line per record: the
// records go to a temporary file that is then renamed over the journal.
func rewrite[T any](j *journal, recs []T) error {
	if j == nil {
		return nil
	}
	path := j.f.Name()
	tmp := path + ".compact"
	err := func() error {
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; success closes below and checks
		w := bufio.NewWriter(f)
		for _, r := range recs {
			line, err := encodeLine(r)
			if err != nil {
				return err
			}
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := f.Sync(); err != nil { // the rename must not publish unwritten data
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}()
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact %s: %w", path, err)
	}
	// Until the reopen succeeds, appends fail on the closed file rather than
	// landing in the replaced one.
	j.f.Close()
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact reopen %s: %w", path, err)
	}
	j.f = nf
	return nil
}

// close closes the journal file.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}
