package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/weave"
)

// node is a mobile node assembled like cmd/node: services and a receiver on
// one mux, served over TCP through the tracing and RED wrappers.
type node struct {
	name     string
	srv      *transport.TCPServer
	receiver *core.Receiver
	reg      *metrics.Registry
}

func (n *node) close() {
	n.receiver.Grantor().Stop()
	n.srv.Close()
}

// newNode starts a node trusting signer. With a recorder the mux is wrapped
// in a transport.serve span, host calls in sandbox.hostcall spans and the
// Fig. 2 builtins in ext.* spans. A request joins the operation its caller
// stamped on it, else the one published on slot, and the spans nested in its
// serving join the same one.
func newNode(name string, signer *sign.Signer, seed int64, rec *recorder, slot *opSlot) (*node, error) {
	weaver := weave.New()
	services := svc.NewRegistry(weaver)
	services.Register("Robot", "moveArm", []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
		return args[0], nil
	})
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	var host lvm.Host = ext.NewNodeHost(ext.NodeHostConfig{KV: store.NewKV(), Clock: clock.Real{}})
	var serveSlot opSlot
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	if rec != nil {
		host = &spanHost{inner: host, rec: rec, slot: &serveSlot, parent: "advice"}
		wrapBuiltins(builtins, rec, &serveSlot)
	}
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: name, Weaver: weaver, Trust: trust, Policy: sandbox.AllowAll(),
		Host: host, Builtins: builtins,
	})
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	tracer := trace.New(seed)
	mux := transport.NewMux()
	services.ServeOn(mux)
	receiver.ServeOn(mux)
	var h transport.Handler = transport.REDHandling(transport.TraceHandling(mux, tracer, name), reg)
	if rec != nil {
		h = &spanHandler{inner: h, rec: rec, slot: slot, serve: &serveSlot, name: "transport.serve", parent: "transport.call"}
	}
	srv, err := transport.ServeTCP("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	srv.Instrument(reg)
	weaver.Instrument(reg)
	receiver.Instrument(reg)
	receiver.Trace(tracer)
	receiver.Grantor().Start(time.Second)
	return &node{name: name, srv: srv, receiver: receiver, reg: reg}, nil
}

// wrapBuiltins re-registers the Fig. 2 advice factories so each body they
// build records an ext.<name> span.
func wrapBuiltins(b *core.Builtins, rec *recorder, slot *opSlot) {
	inner := core.NewBuiltins()
	ext.RegisterAll(inner)
	for _, name := range []string{ext.BSession, ext.BAccessControl, ext.BLogger} {
		b.Register(name, func(env *core.Env, cfg map[string]string) (aop.Body, error) {
			body, err := inner.New(name, env, cfg)
			if err != nil {
				return nil, err
			}
			return &spanBody{inner: body, rec: rec, slot: slot, name: "ext." + name, parent: "transport.serve"}, nil
		})
	}
}

// uncancelled passes each call to inner with its context's deadline and
// values but without its cancellation. TCPCaller watches a call's context
// from a goroutine that can run after the call has returned. svc.Call and
// the base cancel every call's context as soon as it returns, and a late
// watcher then forces an expired deadline onto the next call on the same
// pooled connection, which fails with an early i/o timeout (ROADMAP item 3).
// How many calls that hits depends on goroutine scheduling, so the failure
// count would change from run to run; the benchmark's workloads must run
// without failures. A call that hangs still fails at its deadline, which the
// connection enforces.
type uncancelled struct{ inner transport.Caller }

func (c uncancelled) Call(ctx context.Context, to, method string, req, resp any) error {
	return c.inner.Call(deadlineOnly{ctx}, to, method, req, resp)
}

// deadlineOnly is a context with the deadline and values of the one it
// embeds, which is never done.
type deadlineOnly struct{ context.Context }

func (deadlineOnly) Done() <-chan struct{} { return nil }
func (deadlineOnly) Err() error            { return nil }

// installedNames lists a receiver's extensions as name@version.
func installedNames(r *core.Receiver) string {
	s := ""
	for i, x := range r.Installed() {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s@%d", x.Name, x.Version)
	}
	return s
}

// readAdvice loads an example advice body from the repository.
func readAdvice(name string) (string, error) {
	path, err := repoFile(filepath.Join("examples", "advice", name+".lasm"))
	if err != nil {
		return "", err
	}
	raw, err := os.ReadFile(path)
	return string(raw), err
}

// repoFile finds rel in the working directory or the nearest parent that has
// it, so the benchmark runs from the repository root or its own directory.
func repoFile(rel string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found above the working directory", rel)
		}
		dir = parent
	}
}
