// Package tuplespace implements a Linda-style generative-communication space
// (Gelernter 1985), the distribution substrate the paper names as future work
// for MIDAS ("we are looking at tuple spaces to get a more flexible and
// expressive platform for distributing extensions"). Tuples are written with
// Out, read with Rd (non-destructive) and taken with In (destructive); reads
// match templates field-by-field with wildcards; leased tuples expire like
// any other MIDAS artifact.
package tuplespace

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
)

// Field is one tuple element: a typed scalar.
type Field struct {
	S   string
	I   int64
	B   []byte
	Set uint8 // 1=string, 2=int, 3=bytes
}

// FStr builds a string field.
func FStr(s string) Field { return Field{S: s, Set: 1} }

// FInt builds an integer field.
func FInt(i int64) Field { return Field{I: i, Set: 2} }

// FBytes builds a bytes field.
func FBytes(b []byte) Field { return Field{B: b, Set: 3} }

// FAny is the wildcard template field.
func FAny() Field { return Field{} }

func (f Field) matches(v Field) bool {
	if f.Set == 0 {
		return true // wildcard
	}
	if f.Set != v.Set {
		return false
	}
	switch f.Set {
	case 1:
		return f.S == v.S
	case 2:
		return f.I == v.I
	default:
		if len(f.B) != len(v.B) {
			return false
		}
		for i := range f.B {
			if f.B[i] != v.B[i] {
				return false
			}
		}
		return true
	}
}

// Tuple is an ordered sequence of fields.
type Tuple []Field

// Matches reports whether template t selects tuple v (same arity, each
// template field matches).
func (t Tuple) Matches(v Tuple) bool {
	if len(t) != len(v) {
		return false
	}
	for i := range t {
		if !t[i].matches(v[i]) {
			return false
		}
	}
	return true
}

// ErrClosed is returned by blocking operations when the space closes.
var ErrClosed = errors.New("tuplespace: closed")

type entry struct {
	tuple   Tuple
	leaseID lease.ID
	seq     int64
}

type waiter struct {
	tmpl Tuple
	take bool
	ch   chan Tuple
}

// Space is an in-process tuple space with leased tuples.
type Space struct {
	grantor *lease.Grantor

	mu      sync.Mutex
	entries map[int64]*entry
	waiters map[int64]*waiter
	seq     int64
	wseq    int64
	closed  bool
}

// New returns an empty space on clk (nil = real clock).
func New(clk clock.Clock) *Space {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Space{
		grantor: lease.NewGrantor(clk),
		entries: make(map[int64]*entry),
		waiters: make(map[int64]*waiter),
	}
}

// Out writes a tuple under a lease (0 = immortal). A blocked In/Rd waiting
// on a matching template is served immediately — In consumes the tuple.
func (s *Space) Out(t Tuple, dur time.Duration) lease.Lease {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return lease.Lease{}
	}
	// Serve a blocked waiter first (take-waiters consume the tuple).
	for id, w := range s.waiters {
		if w.tmpl.Matches(t) {
			delete(s.waiters, id)
			take := w.take
			s.mu.Unlock()
			w.ch <- t
			if take {
				return lease.Lease{}
			}
			// Rd waiters leave the tuple in the space.
			s.mu.Lock()
			break
		}
	}
	s.seq++
	e := &entry{tuple: t, seq: s.seq}
	id := s.seq
	s.entries[id] = e
	s.mu.Unlock()

	var l lease.Lease
	if dur > 0 {
		l = s.grantor.Grant(context.Background(), dur, func(lease.ID) {
			s.mu.Lock()
			delete(s.entries, id)
			s.mu.Unlock()
		})
		s.mu.Lock()
		if cur, ok := s.entries[id]; ok {
			cur.leaseID = l.ID
		}
		s.mu.Unlock()
	}
	return l
}

// Renew extends a tuple's lease.
func (s *Space) Renew(id lease.ID, dur time.Duration) error {
	_, err := s.grantor.Renew(context.Background(), id, dur)
	return err
}

// Rd blocks until a matching tuple exists and returns a copy of it. Matching
// order is write order.
func (s *Space) Rd(ctx context.Context, tmpl Tuple) (Tuple, error) {
	return s.wait(ctx, tmpl, false)
}

// In blocks until a matching tuple exists and removes it, cancelling its
// lease.
func (s *Space) In(ctx context.Context, tmpl Tuple) (Tuple, error) {
	return s.wait(ctx, tmpl, true)
}

func (s *Space) wait(ctx context.Context, tmpl Tuple, take bool) (Tuple, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if e := s.findLocked(tmpl); e != nil {
		if take {
			delete(s.entries, e.seq)
			leaseID := e.leaseID
			s.mu.Unlock()
			if leaseID != "" {
				_ = s.grantor.Cancel(leaseID)
			}
			return e.tuple, nil
		}
		t := append(Tuple(nil), e.tuple...)
		s.mu.Unlock()
		return t, nil
	}
	s.wseq++
	id := s.wseq
	w := &waiter{tmpl: tmpl, take: take, ch: make(chan Tuple, 1)}
	s.waiters[id] = w
	s.mu.Unlock()

	select {
	case t, ok := <-w.ch:
		if !ok {
			return nil, ErrClosed
		}
		return t, nil
	case <-ctx.Done():
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		// A concurrent Out may have already served us.
		select {
		case t, ok := <-w.ch:
			if ok {
				return t, nil
			}
		default:
		}
		return nil, ctx.Err()
	}
}

// RdAll returns copies of all tuples matching tmpl, in write order.
func (s *Space) RdAll(tmpl Tuple) []Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	var found []*entry
	for _, e := range s.entries {
		if tmpl.Matches(e.tuple) {
			found = append(found, e)
		}
	}
	// Write order.
	for i := 1; i < len(found); i++ {
		for j := i; j > 0 && found[j].seq < found[j-1].seq; j-- {
			found[j], found[j-1] = found[j-1], found[j]
		}
	}
	out := make([]Tuple, len(found))
	for i, e := range found {
		out[i] = append(Tuple(nil), e.tuple...)
	}
	return out
}

// Len returns the number of stored tuples.
func (s *Space) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// ExpireNow sweeps lapsed tuple leases.
func (s *Space) ExpireNow() int { return s.grantor.ExpireNow() }

// Close wakes all blocked readers with ErrClosed.
func (s *Space) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ws := make([]*waiter, 0, len(s.waiters))
	for _, w := range s.waiters {
		ws = append(ws, w)
	}
	s.waiters = make(map[int64]*waiter)
	s.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
}

func (s *Space) findLocked(tmpl Tuple) *entry {
	var best *entry
	for _, e := range s.entries {
		if tmpl.Matches(e.tuple) && (best == nil || e.seq < best.seq) {
			best = e
		}
	}
	return best
}
