package transport

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// ErrOverloaded is the load-shedding sentinel: a server whose overload
// control plane (internal/overload) refuses a request answers with it instead
// of doing work. It is registered as a remote sentinel, so errors.Is holds
// whether the shed happened in-process or across any fabric, and it carries
// an optional retry-after hint as plain text in the error message, because
// every fabric transmits a remote failure as its error text.
//
// Sheds are treated specially in two places:
//   - A lookup's watch delivery (registry.Server) resends a shed event only
//     after the hinted delay (cooperative backpressure instead of hammering
//     a struggling server), and without counting a failure.
//   - Transient never counts a shed as a call that got no answer: an
//     overloaded-but-healthy server answered, so the link is fine.
var ErrOverloaded = errors.New("transport: overloaded")

// retryAfterToken introduces the retry-after hint inside an overload error's
// text. The format is frozen — a relaying peer passes the text on verbatim
// and the caller parses it back out — and pinned by golden vectors in the
// tests.
const retryAfterToken = "retry-after-ms="

// Overloaded builds the error a shedding server returns. A positive
// retryAfter attaches the scheduling hint, rounded up to a whole millisecond
// so a sub-millisecond hint is never silently dropped; zero or negative
// returns the bare sentinel.
func Overloaded(retryAfter time.Duration) error {
	if retryAfter <= 0 {
		return ErrOverloaded
	}
	ms := (retryAfter + time.Millisecond - 1) / time.Millisecond
	return fmt.Errorf("%w; %s%d", ErrOverloaded, retryAfterToken, ms)
}

// RetryAfterHint reports whether err is a load shed (local or remote) and the
// server's retry-after hint, 0 when the shed carried none. The hint is parsed
// from the error text, so it round-trips through every fabric and through
// any peer that only relayed the string.
func RetryAfterHint(err error) (time.Duration, bool) {
	if err == nil || !errors.Is(err, ErrOverloaded) {
		return 0, false
	}
	msg := err.Error()
	i := strings.Index(msg, retryAfterToken)
	if i < 0 {
		return 0, true
	}
	rest := msg[i+len(retryAfterToken):]
	// The largest hint a time.Duration holds, in milliseconds.
	const maxMs = int64(math.MaxInt64 / time.Millisecond)
	var ms int64
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		d := int64(rest[j] - '0')
		if ms > (maxMs-d)/10 {
			return 0, true // absurd hint: treat as unhinted rather than overflow
		}
		ms = ms*10 + d
		j++
	}
	if j == 0 {
		return 0, true
	}
	return time.Duration(ms) * time.Millisecond, true
}
