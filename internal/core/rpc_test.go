package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TestReceiverRPCSurface exercises the receiver's lifecycle over the TCP
// fabric: a one-install midas.applyBatch, a renewal, the /extensions document
// over ops, and a one-revoke midas.applyBatch after which the lease is gone.
func TestReceiverRPCSurface(t *testing.T) {
	n := newTestNode(t)
	mux := transport.NewMux()
	n.receiver.ServeOn(mux)
	transport.ServeOps(mux, metrics.NewHandler(metrics.New(), nil, n.receiver.Mounts()...))
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
	applied, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ctx, caller, srv.Addr(), MethodApplyBatch, ApplyBatchReq{
		Installs: []InstallReq{{Signed: signed, BaseAddr: "base-1", DurMillis: 60_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied.Installs) != 1 || applied.Installs[0].Err != "" || applied.Installs[0].LeaseID == "" {
		t.Fatalf("install outcomes = %+v, want one lease", applied.Installs)
	}
	leaseID := applied.Installs[0].LeaseID

	if _, err := transport.Invoke[RenewExtReq, RenewExtResp](ctx, caller, srv.Addr(), MethodRenewE, RenewExtReq{
		LeaseID:   leaseID,
		DurMillis: 60_000,
	}); err != nil {
		t.Fatal(err)
	}

	body, err := transport.Ops(ctx, caller, srv.Addr(), "/extensions")
	if err != nil {
		t.Fatal(err)
	}
	var exts []ExtensionInfo
	if err := json.Unmarshal(body, &exts); err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 || exts[0].Name != "remote-ext" || exts[0].Version != 1 || exts[0].BaseAddr != "base-1" {
		t.Fatalf("/extensions = %+v", exts)
	}

	revoked, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ctx, caller, srv.Addr(), MethodApplyBatch, ApplyBatchReq{
		Revokes: []string{"remote-ext"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(revoked.Revokes) != 1 || revoked.Revokes[0].Err != "" {
		t.Fatalf("revoke outcomes = %+v, want one success", revoked.Revokes)
	}
	if n.receiver.Has("remote-ext") {
		t.Fatal("revoked extension still installed")
	}

	// Renewing the cancelled lease now fails remotely.
	_, err = transport.Invoke[RenewExtReq, RenewExtResp](ctx, caller, srv.Addr(), MethodRenewE, RenewExtReq{
		LeaseID:   leaseID,
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
