package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// ParseFaults parses a comma-separated fault spec into a LinkProfile, e.g.
//
//	loss=0.1,dup=0.05,reorder=0.02,latmin=5ms,latmax=50ms
//
// Keys: loss, dup, reorder (probabilities in [0,1]); latmin, latmax,
// dupdelay, reorderdelay (Go durations). Unknown keys are errors so typos in
// a -faults flag fail loudly instead of silently running fault-free.
func ParseFaults(spec string) (LinkProfile, error) {
	var p LinkProfile
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	prob := map[string]*float64{"loss": &p.Loss, "dup": &p.Dup, "reorder": &p.Reorder}
	dur := map[string]*time.Duration{"latmin": &p.LatencyMin, "latmax": &p.LatencyMax,
		"dupdelay": &p.DupDelay, "reorderdelay": &p.ReorderDelay}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("simnet: fault spec %q: want key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if f, ok := prob[key]; ok {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || v < 0 || v > 1 {
				return p, fmt.Errorf("simnet: fault %s=%q: want probability in [0,1]", key, val)
			}
			*f = v
		} else if d, ok := dur[key]; ok {
			v, err := time.ParseDuration(val)
			if err != nil || v < 0 {
				return p, fmt.Errorf("simnet: fault %s=%q: want non-negative duration", key, val)
			}
			*d = v
		} else {
			return p, fmt.Errorf("simnet: unknown fault key %q", key)
		}
	}
	if p.LatencyMax < p.LatencyMin {
		p.LatencyMax = p.LatencyMin
	}
	return p, nil
}

// Chaos wraps a real transport.Caller with seeded fault injection — loss,
// latency, duplication, reordering — for manual chaos runs against live
// fabrics (cmd/node -faults). It draws every call's fate on one link seeded
// from seed and applies it with Net's send step, caller-side only: a dropped
// message surfaces as ErrUnreachable without touching the wire, a duplicated
// one is sent again, DupDelay after the original.
type Chaos struct {
	faults // its mu also guards link
	inner  transport.Caller
	link   link
}

// NewChaos returns a chaos wrapper around inner drawing faults from seed.
func NewChaos(inner transport.Caller, seed int64, prof LinkProfile) *Chaos {
	return &Chaos{
		faults: faults{clk: clock.Real{}},
		inner:  inner,
		link:   link{prof: &prof, rng: rand.New(rand.NewSource(seed))},
	}
}

// Call implements transport.Caller.
func (c *Chaos) Call(ctx context.Context, to, method string, req, resp any) error {
	c.mu.Lock()
	c.m.calls.Inc()
	plan := c.link.plan(nil)
	c.mu.Unlock()
	_, err := c.send(ctx, c.inner, plan, "chaos", to, method, req, resp)
	return err
}
