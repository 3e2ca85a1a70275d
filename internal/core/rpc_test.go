package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/transport"
)

// TestReceiverRPCSurface exercises every midas.* method over a real
// transport, including the TCP fabric.
func TestReceiverRPCSurface(t *testing.T) {
	n := newTestNode(t)
	mux := transport.NewMux()
	n.receiver.ServeOn(mux)
	srv, err := transport.ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller := transport.NewTCPCaller()
	defer caller.Close()
	ctx := context.Background()

	signed, err := Sign(n.signer, builtinExt("remote-ext", 1))
	if err != nil {
		t.Fatal(err)
	}
	installResp, err := transport.Invoke[InstallReq, InstallResp](ctx, caller, srv.Addr(), MethodInstall, InstallReq{
		Signed:    signed,
		BaseAddr:  "base-1",
		DurMillis: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if installResp.LeaseID == "" {
		t.Fatal("no lease over RPC")
	}

	if _, err := transport.Invoke[RenewExtReq, RenewExtResp](ctx, caller, srv.Addr(), MethodRenewE, RenewExtReq{
		LeaseID:   installResp.LeaseID,
		DurMillis: 60_000,
	}); err != nil {
		t.Fatal(err)
	}

	listResp, err := transport.Invoke[EmptyResp, ListResp](ctx, caller, srv.Addr(), MethodList, EmptyResp{})
	if err != nil {
		t.Fatal(err)
	}
	if len(listResp.Extensions) != 1 || listResp.Extensions[0].Name != "remote-ext" {
		t.Fatalf("list = %+v", listResp.Extensions)
	}

	if _, err := transport.Invoke[RevokeReq, EmptyResp](ctx, caller, srv.Addr(), MethodRevoke, RevokeReq{Name: "remote-ext"}); err != nil {
		t.Fatal(err)
	}
	if n.receiver.Has("remote-ext") {
		t.Fatal("revoked extension still installed")
	}

	// Renewing the cancelled lease now fails remotely.
	_, err = transport.Invoke[RenewExtReq, RenewExtResp](ctx, caller, srv.Addr(), MethodRenewE, RenewExtReq{
		LeaseID:   installResp.LeaseID,
		DurMillis: 60_000,
	})
	if err == nil {
		t.Fatal("renew of revoked lease should fail")
	}
}

func TestReceiverRenewUnknownLease(t *testing.T) {
	n := newTestNode(t)
	if err := n.receiver.Renew(lease.ID("ghost"), time.Second); err == nil {
		t.Fatal("want error")
	}
}

func TestReceiverWithdrawUnknown(t *testing.T) {
	n := newTestNode(t)
	if err := n.receiver.Withdraw(context.Background(), "ghost"); err == nil {
		t.Fatal("want error")
	}
}

func TestNewReceiverValidation(t *testing.T) {
	if _, err := NewReceiver(ReceiverConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNewBaseValidation(t *testing.T) {
	if _, err := NewBase(BaseConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
