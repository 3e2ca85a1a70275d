package core

// activityLogCap bounds the base's and the receiver's activity logs: each
// keeps its newest activityLogCap entries, so a long-lived base rolling out
// policy after policy holds a fixed amount of log. The base.* and ext.*
// counters still count every event.
const activityLogCap = 1024

// ring is a fixed-capacity log that keeps the newest activityLogCap entries.
// It is not safe for concurrent use; its owner's lock guards it.
type ring[T any] struct {
	buf []T
	// oldest is the index of the oldest entry once buf is full (the slot the
	// next entry overwrites); 0 while buf is still filling.
	oldest int
}

func (r *ring[T]) add(v T) {
	if len(r.buf) < activityLogCap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.oldest] = v
	r.oldest = (r.oldest + 1) % len(r.buf)
}

// entries copies the log out, oldest first.
func (r *ring[T]) entries() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.oldest:]...)
	return append(out, r.buf[:r.oldest]...)
}
