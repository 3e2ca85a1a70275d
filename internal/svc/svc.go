// Package svc exposes a node's application methods as remote services whose
// invocations flow through the weaver's hook sites — this is the adapted
// remote method call of Fig. 2: the transport delivers the request, the
// session extension extracts the caller identity at the entry interception,
// the access-control extension decides whether execution proceeds, the method
// runs (its state changes visible to field-level extensions), and exit
// interceptions see the result before it returns to the caller.
package svc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/transport"
	"repro/internal/weave"
)

// MethodInvoke is the RPC method name for service invocation.
const MethodInvoke = "svc.invoke"

// MetaCaller is the context metadata key under which the transport layer
// exposes the remote caller's identity; the session extension republishes it
// as "session.caller".
const MetaCaller = "rpc.caller"

// InvokeReq is a remote service invocation. Args are restricted to scalar
// LVM values (nil, int, bool, str, bytes); see ErrNotScalar.
type InvokeReq struct {
	Service string
	Method  string
	Caller  string
	Args    []lvm.Value
}

// InvokeResp carries the result value.
type InvokeResp struct {
	Result lvm.Value
}

func init() { transport.RegisterRemoteSentinel(ErrNotScalar) }

// Handler implements one service method natively.
type Handler func(args []lvm.Value) (lvm.Value, error)

type method struct {
	hooks *weave.MethodHooks
	fn    Handler
}

// Registry holds the services of one node.
type Registry struct {
	weaver *weave.Weaver

	mu       sync.Mutex
	services map[string]map[string]*method
}

// NewRegistry returns an empty service registry over the node's weaver.
func NewRegistry(weaver *weave.Weaver) *Registry {
	return &Registry{weaver: weaver, services: make(map[string]map[string]*method)}
}

// Register exposes fn as service.method with the given declared signature
// (used by crosscut patterns). Registering twice overwrites.
func (r *Registry) Register(service, methodName string, params []string, ret string, fn Handler) {
	sig := aop.Signature{Class: service, Method: methodName, Return: ret, Params: params}
	m := &method{hooks: r.weaver.HookMethod(sig), fn: fn}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.services[service] == nil {
		r.services[service] = make(map[string]*method)
	}
	r.services[service][methodName] = m
}

// Invoke runs a service method locally through the woven hooks.
func (r *Registry) Invoke(service, methodName, caller string, args []lvm.Value) (lvm.Value, error) {
	r.mu.Lock()
	var m *method
	if svcMap, ok := r.services[service]; ok {
		m = svcMap[methodName]
	}
	r.mu.Unlock()
	if m == nil {
		return lvm.Nil(), fmt.Errorf("svc: no method %s.%s", service, methodName)
	}
	var meta map[string]lvm.Value
	if caller != "" {
		meta = map[string]lvm.Value{MetaCaller: lvm.Str(caller)}
	}
	return m.hooks.InvokeWithMeta(nil, args, meta, m.fn)
}

// ServeOn registers the invocation endpoint on mux.
func (r *Registry) ServeOn(mux *transport.Mux) {
	transport.Register(mux, MethodInvoke, func(_ context.Context, req InvokeReq) (InvokeResp, error) {
		v, err := r.Invoke(req.Service, req.Method, req.Caller, req.Args)
		if err == nil {
			err = checkScalar(v, "result of "+req.Service+"."+req.Method)
		}
		if err != nil {
			return InvokeResp{}, err
		}
		return InvokeResp{Result: v}, nil
	})
}

// Call invokes a remote service method at addr on behalf of caller. An
// argument that is not a scalar LVM value fails with ErrNotScalar before
// anything is sent.
func Call(c transport.Caller, addr, service, methodName, caller string, args ...lvm.Value) (lvm.Value, error) {
	for i, a := range args {
		if err := checkScalar(a, fmt.Sprintf("argument %d of %s.%s", i, service, methodName)); err != nil {
			return lvm.Nil(), err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := transport.Invoke[InvokeReq, InvokeResp](ctx, c, addr, MethodInvoke, InvokeReq{
		Service: service,
		Method:  methodName,
		Caller:  caller,
		Args:    args,
	})
	if err != nil {
		return lvm.Nil(), err
	}
	return resp.Result, nil
}
