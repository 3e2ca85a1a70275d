package simnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// BenchmarkFabricCall sends one singleton-renewal-shaped call (the request
// and response types of core.MethodRenewE, under a CallDeadline, as the
// base's renewal workers send it) over transport.InProc and over a
// zero-fault Net, to price what the fault layer adds to a delivery.
func BenchmarkFabricCall(b *testing.B) {
	mux := transport.NewMux()
	transport.Register(mux, core.MethodRenewE, func(_ context.Context, req core.RenewExtReq) (core.RenewExtResp, error) {
		return core.RenewExtResp{DurMillis: req.DurMillis}, nil
	})
	inproc := transport.NewInProc()
	net := New(nil, 1)
	b.Cleanup(net.Close)
	for _, f := range []struct {
		name  string
		serve func(string, transport.Handler) (func(), error)
		node  func(string) transport.Caller
	}{
		{"inproc", inproc.Serve, inproc.Node},
		{"simnet", net.Serve, net.Node},
	} {
		b.Run(f.name, func(b *testing.B) {
			stop, err := f.serve("node", mux)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			c := f.node("base")
			req := core.RenewExtReq{LeaseID: "lease-000042", DurMillis: 30000}
			var resp core.RenewExtResp
			b.ReportAllocs()
			for b.Loop() {
				ctx := transport.WithCallDeadline(context.Background(), time.Second)
				err := c.Call(ctx, "node", core.MethodRenewE, &req, &resp)
				ctx.Cancel()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
