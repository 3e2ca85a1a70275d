package ext

import (
	"sync"

	"repro/internal/aop"
	"repro/internal/core"
	"repro/internal/lvm"
)

// monitorQueue bounds the async posting buffer.
const monitorQueue = 256

// newMonitor is the hardware monitoring and logging extension of §4.4
// (Fig. 3b and Fig. 5): every intercepted action is turned into a record
// (robot identity, device, action, value, timestamp) and posted to the base
// station that installed the extension, where it lands in the movement
// database. Config:
//
//	mode:  "async" (default) buffers and posts in the background;
//	       "sync" posts inline before the action proceeds
//	robot: overrides the reported robot identity (default: node name)
//
// Requires the net and clock capabilities. The async body implements the
// shutdown procedure of §3.2: pending records are flushed before the
// extension is discarded.
func newMonitor(env *core.Env, cfg map[string]string) (aop.Body, error) {
	robot := cfg["robot"]
	if robot == "" {
		robot = env.NodeName
	}
	m := &monitorBody{
		host:     env.Host,
		baseAddr: env.BaseAddr,
		robot:    robot,
		sync:     cfg["mode"] == "sync",
	}
	if !m.sync {
		m.queue = make(chan record, monitorQueue)
		m.done = make(chan struct{})
		go m.drain()
	}
	return m, nil
}

type record struct {
	device string
	action string
	value  int64
	at     int64
}

type monitorBody struct {
	host     lvm.Host
	baseAddr string
	robot    string
	sync     bool

	queue chan record
	done  chan struct{}

	mu     sync.Mutex
	closed bool
}

// Exec implements aop.Body.
func (m *monitorBody) Exec(ctx *aop.Context) error {
	now, err := hostCall(m.host, "clock.now")
	if err != nil {
		return err
	}
	rec := record{at: now.AsInt()}
	switch ctx.Kind {
	case aop.FieldGet, aop.FieldSet:
		rec.device = ctx.Sig.Class + deviceSuffix(ctx)
		rec.action = "set:" + ctx.Field
		rec.value = ctx.Arg(0).AsInt()
		if ctx.Kind == aop.FieldGet {
			rec.action = "get:" + ctx.Field
			rec.value = ctx.Result.AsInt()
		}
	default:
		rec.device = ctx.Sig.Class + deviceSuffix(ctx)
		rec.action = ctx.Sig.Method
		rec.value = ctx.Arg(0).AsInt()
	}
	if m.sync {
		return m.post(rec)
	}
	// The send happens under the mutex so Shutdown cannot close the queue
	// between the closed-check and the send.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	select {
	case m.queue <- rec:
	default: // queue full: the record is dropped, posting is best effort
	}
	return nil
}

// deviceSuffix appends the self object's id field when present, producing
// identities like "Motor:x".
func deviceSuffix(ctx *aop.Context) string {
	if ctx.Self == nil {
		return ""
	}
	if id, ok := ctx.Self.FieldByName("id"); ok && id.K == lvm.KStr && id.S != "" {
		return ":" + id.S
	}
	return ""
}

func (m *monitorBody) post(rec record) error {
	_, err := hostCall(m.host, "net.post",
		lvm.Str(m.baseAddr), lvm.Str(m.robot), lvm.Str(rec.device),
		lvm.Str(rec.action), lvm.Int(rec.value), lvm.Int(rec.at), lvm.Int(0))
	return err
}

func (m *monitorBody) drain() {
	defer close(m.done)
	for rec := range m.queue {
		_ = m.post(rec) // best effort; base may be briefly unreachable
	}
}

// Shutdown implements core.ShutdownBody: flush pending records so the base
// has a consistent movement history before the extension is discarded.
func (m *monitorBody) Shutdown() {
	if m.sync {
		return
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	<-m.done
}
