package simnet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateFates = flag.Bool("update", false, "rewrite testdata/fates.golden from the current code")

// fateProfile turns every fault on. DupDelay is a constant of the profile,
// not a draw, so the golden pins the four draws each message makes: loss,
// dup, reorder and latency, in that order.
var fateProfile = LinkProfile{
	LatencyMin: time.Millisecond, LatencyMax: 9 * time.Millisecond,
	Loss: 0.2, Dup: 0.3, DupDelay: 7 * time.Millisecond,
	Reorder: 0.25, ReorderDelay: 3 * time.Millisecond,
}

// fate is what one message's draws decided. A lost message shows nothing
// else: its other draws are still made, so they shift every later line.
type fate struct {
	lost, dup, reordered bool
	latency              time.Duration
}

func (f fate) String() string {
	if f.lost {
		return "lost"
	}
	return fmt.Sprintf("dup=%t reordered=%t latency=%v", f.dup, f.reordered, f.latency)
}

// netFate draws the next fate of the directed link from → to.
func netFate(n *Net, from, to string) fate {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fateOf(n.linkLocked(from, to).plan(&n.def))
}

// chaosFate draws the fate of c's next call, as Call does.
func chaosFate(c *Chaos) fate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fateOf(c.link.plan(nil))
}

func fateOf(p sendPlan) fate { return fate{p.lost, p.dup, p.reordered, p.latency} }

// TestFateStreamGolden pins the fault stream: the first 200 fates of links
// a→b and b→a of a Net, and of a Chaos wrapper, for three seeds. A change to
// the draws breaks every SIMNET_SEED replay, so it must show here first.
// Regenerate with -update only when the stream is meant to change.
func TestFateStreamGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 42, 20030901} {
		n := New(nil, seed)
		n.SetDefault(fateProfile)
		for _, l := range [][2]string{{"a", "b"}, {"b", "a"}} {
			fmt.Fprintf(&b, "seed %d net %s->%s\n", seed, l[0], l[1])
			for i := 0; i < 200; i++ {
				fmt.Fprintln(&b, netFate(n, l[0], l[1]))
			}
		}
		n.Close()

		c := NewChaos(nil, seed, fateProfile)
		fmt.Fprintf(&b, "seed %d chaos\n", seed)
		for i := 0; i < 200; i++ {
			fmt.Fprintln(&b, chaosFate(c))
		}
	}
	path := filepath.Join("testdata", "fates.golden")
	if *updateFates {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("fate stream differs from %s at line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fate stream has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
