package transport_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Body ownership regression tests. Register decodes StringView fields of a
// request as views into the request body, which is sound only because every fabric hands that
// body over for good; and fabrics recycle response bodies Register encoded,
// which is sound only because callers decode responses into copies. A fabric
// that reused a request buffer, or a caller that decoded a response as
// views, would let a later call overwrite strings an earlier one kept.

// leaseBatch is a renewal-shaped request: a batch of lease IDs, decoded as
// views like core.RenewExtReq's.
type leaseBatch struct{ IDs []string }

func (r leaseBatch) MarshalWire(e *wire.Encoder) { e.StringSlice(r.IDs) }

func (r *leaseBatch) UnmarshalWire(d *wire.Decoder) error {
	r.IDs = make([]string, d.Len())
	for i := range r.IDs {
		r.IDs[i] = d.StringView()
	}
	return d.Err()
}

// leaseGrant is the response: a string derived from the request, decoded
// with StringView so that only the caller's copying decode keeps it off the
// recycled response body.
type leaseGrant struct{ ID string }

func (r leaseGrant) MarshalWire(e *wire.Encoder) { e.String(r.ID) }

func (r *leaseGrant) UnmarshalWire(d *wire.Decoder) error {
	r.ID = d.StringView()
	return d.Err()
}

// keeper keeps every lease ID it decodes as a map key, the way a node keeps
// its lease table, and answers with a grant naming the batch's first lease.
type keeper struct {
	mu   sync.Mutex
	seen map[string]int
}

func newKeeper() (*keeper, *transport.Mux) {
	k := &keeper{seen: make(map[string]int)}
	mux := transport.NewMux()
	transport.Register(mux, "keep", func(_ context.Context, req leaseBatch) (leaseGrant, error) {
		k.mu.Lock()
		defer k.mu.Unlock()
		for _, id := range req.IDs {
			k.seen[id]++
		}
		return leaseGrant{ID: "grant-" + req.IDs[0]}, nil
	})
	return k, mux
}

// batch returns call i's lease IDs; all of them have the same length, so a
// reused buffer would put a later call's bytes exactly where call 0's were.
func batch(i int) leaseBatch {
	return leaseBatch{IDs: []string{fmt.Sprintf("lease-%04d-a", i), fmt.Sprintf("lease-%04d-b", i), fmt.Sprintf("lease-%04d-c", i)}}
}

// checkOwnership makes call 0, keeps its decoded grant, makes 1 000 further
// calls, then checks that the node's map keys of call 0 and the caller's
// grant of call 0 still read as written. deliveries is how many times the
// fabric hands each request to the handler.
func checkOwnership(t *testing.T, k *keeper, c transport.Caller, to string, deliveries int) {
	t.Helper()
	const further = 1000
	call := func(i int) leaseGrant {
		ctx := transport.WithCallDeadline(context.Background(), time.Minute)
		defer ctx.Cancel()
		resp, err := transport.Invoke[leaseBatch, leaseGrant](ctx, c, to, "keep", batch(i))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		return resp
	}
	first := call(0)
	for i := 1; i <= further; i++ {
		if got, want := call(i).ID, "grant-"+batch(i).IDs[0]; got != want {
			t.Fatalf("call %d: grant %q, want %q", i, got, want)
		}
	}
	if want := "grant-" + batch(0).IDs[0]; first.ID != want {
		t.Fatalf("the grant decoded by call 0 now reads %q, want %q: it aliases a recycled response body", first.ID, want)
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	for _, id := range batch(0).IDs {
		if k.seen[id] != deliveries {
			t.Fatalf("lease %s kept %d times, want %d: a kept map key was overwritten (have %d keys)", id, k.seen[id], deliveries, len(k.seen))
		}
	}
	want := make(map[string]bool, 3*(further+1))
	for i := 0; i <= further; i++ {
		for _, id := range batch(i).IDs {
			want[id] = true
		}
	}
	var stray []string
	for id := range k.seen {
		if !want[id] {
			stray = append(stray, id)
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 || len(k.seen) != len(want) {
		t.Fatalf("node holds %d keys, want %d; keys no call sent: %q", len(k.seen), len(want), stray)
	}
}

func TestHandlerKeepsDecodedIDsInProc(t *testing.T) {
	k, mux := newKeeper()
	fabric := transport.NewInProc()
	stop, err := fabric.Serve("node", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	checkOwnership(t, k, fabric.Node("base"), "node", 1)
}

func TestHandlerKeepsDecodedIDsTCP(t *testing.T) {
	k, mux := newKeeper()
	srv, err := transport.ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := transport.NewTCPCaller()
	defer c.Close()
	checkOwnership(t, k, c, srv.Addr(), 1)
}

// TestHandlerKeepsDecodedIDsSimnet runs with every request duplicated, so
// each request reaches the handler twice: once through the InProc delivery
// simnet layers its faults over, under the caller's CallDeadline, and once
// as the duplicate, whose request bytes simnet encoded before the original
// was sent and InProc frames into a body of its own.
func TestHandlerKeepsDecodedIDsSimnet(t *testing.T) {
	k, mux := newKeeper()
	n := simnet.New(clock.NewManual(time.Unix(0, 0)), 1)
	defer n.Close()
	stop, err := n.Serve("node", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	n.SetLink("base", "node", simnet.LinkProfile{Dup: 1})
	checkOwnership(t, k, n.Node("base"), "node", 2)
}
