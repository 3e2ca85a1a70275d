// Integration tests spanning the whole platform: the scenarios of §4.5
// (remote replication, movement control) and the mobile-code distribution
// path, exercised end to end through transport, MIDAS, sandbox and weaver.
package repro

import (
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/plotter"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/weave"
)

// plotterNode bundles one adaptable plotter node on a fabric.
type plotterNode struct {
	name     string
	weaver   *weave.Weaver
	canvas   *plotter.Canvas
	plot     *plotter.Plotter
	receiver *core.Receiver
	kv       *store.KV
}

// rotateX turns the plotter's x motor by delta through its woven join points.
func rotateX(p *plotter.Plotter, delta int64) error {
	return p.Replay([]plotter.ReplayCommand{{Device: "motor:x", Action: "rotate", Value: delta}})
}

func newPlotterNode(t *testing.T, fabric *transport.InProc, name string, trusted *sign.Signer) *plotterNode {
	t.Helper()
	weaver := weave.New()
	canvas := plotter.NewCanvas(32, 32)
	plot, err := plotter.New(weaver, canvas)
	if err != nil {
		t.Fatal(err)
	}
	services := svc.NewRegistry(weaver)
	plot.RegisterService(services)

	trust := sign.NewTrustStore()
	trust.Trust(trusted.Name, trusted.PublicKey())
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	kv := store.NewKV()
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: name,
		Addr:     name,
		Weaver:   weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Host: ext.NewNodeHost(ext.NodeHostConfig{
			Caller: fabric.Node(name),
			KV:     kv,
			Clock:  clock.Real{},
		}),
		Builtins: builtins,
		Extras:   map[string]any{ext.ExtraTxnManager: txn.NewManager(kv)},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	receiver.ServeOn(mux)
	services.ServeOn(mux)
	stop, err := fabric.Serve(name, mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return &plotterNode{name: name, weaver: weaver, canvas: canvas, plot: plot, receiver: receiver, kv: kv}
}

func newSignedBase(t *testing.T, fabric *transport.InProc, name string, db *store.Store) (*core.Base, *sign.Signer) {
	t.Helper()
	signer, err := sign.NewSigner(name)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewBase(core.BaseConfig{
		Name:     name,
		Addr:     name,
		Caller:   fabric.Node(name),
		Signer:   signer,
		Store:    db,
		LeaseDur: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(base.Close)
	mux := transport.NewMux()
	base.ServeOn(mux)
	stop, err := fabric.Serve(name, mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return base, signer
}

// TestRemoteReplicationScenario reproduces §4.5 "Remote replication": the
// monitored robot's movements are fed to an identical robot in a remote
// location, at half scale.
func TestRemoteReplicationScenario(t *testing.T) {
	fabric := transport.NewInProc()
	base, signer := newSignedBase(t, fabric, "base-1", store.NewMemory())

	original := newPlotterNode(t, fabric, "plotter-A", signer)
	mirror := newPlotterNode(t, fabric, "plotter-B", signer)

	// The hall adapts the original robot with a replication extension that
	// mirrors every x-axis rotation to the mirror robot at 50 % scale.
	if err := base.AddExtension(core.Extension{
		ID:      "hall/replicate",
		Name:    "replicate",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "mirror-moves",
			Kind:    core.KindCallAfter,
			Pattern: "Motor.rotate(..)",
			Builtin: ext.BReplicate,
			Config: map[string]string{
				"peer":    "plotter-B",
				"service": plotter.ServiceName,
				"scale":   "50",
			},
		}},
		Caps: []string{"net"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := base.AdaptNode("plotter-A", "plotter-A"); err != nil {
		t.Fatal(err)
	}
	if !original.receiver.Has("replicate") {
		t.Fatal("replication extension not installed")
	}

	// Drive only the original's x motor; every rotation is mirrored.
	for i := 0; i < 4; i++ {
		if err := rotateX(original.plot, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := original.plot.Position(); got != 8 {
		t.Fatalf("original x = %d", got)
	}
	if got, _ := mirror.plot.Position(); got != 4 {
		t.Fatalf("mirror x = %d, want 4 (half scale)", got)
	}
}

// TestMobileCodeDistribution ships LVM advice bytecode through the full
// MIDAS path (sign → push → verify → sandbox → weave) and verifies it
// controls the plotter.
func TestMobileCodeDistribution(t *testing.T) {
	fabric := transport.NewInProc()
	base, signer := newSignedBase(t, fabric, "base-1", store.NewMemory())
	node := newPlotterNode(t, fabric, "plotter-A", signer)

	// Mobile code: forbid x-axis rotations that would move past 5.
	if err := base.AddExtension(core.Extension{
		ID:      "hall/mobile-limit",
		Name:    "mobile-limit",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "limit",
			Kind:    core.KindFieldSet,
			Pattern: "Motor.pos",
			Code: `
class Ext
  method void advice()
    hostcall ctx.field 0
    push "pos"
    eq
    jmpf ok           ; not a pos write: nothing to check
    push 0
    hostcall ctx.arg 1
    push 5
    gt
    jmpf ok
    push "x limit exceeded"
    hostcall ctx.abort 1
    pop
  ok:
    retv
  end
end`,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := base.AdaptNode("plotter-A", "plotter-A"); err != nil {
		t.Fatal(err)
	}
	if !node.receiver.Has("mobile-limit") {
		t.Fatal("mobile-code extension not installed")
	}

	for i := 0; i < 5; i++ {
		if err := rotateX(node.plot, 1); err != nil {
			t.Fatalf("rotate %d: %v", i, err)
		}
	}
	err := rotateX(node.plot, 1) // would move pos to 6
	if err == nil || !strings.Contains(err.Error(), "x limit exceeded") {
		t.Fatalf("limit not enforced: %v", err)
	}
	if x, _ := node.plot.Position(); x != 5 {
		t.Errorf("pos = %d, want 5", x)
	}
}

// TestAccountingScenario bills every completed service call to the caller
// and records the charges at the base station (§1's accounting example).
func TestAccountingScenario(t *testing.T) {
	fabric := transport.NewInProc()
	db := store.NewMemory()
	base, signer := newSignedBase(t, fabric, "base-1", db)
	node := newPlotterNode(t, fabric, "plotter-A", signer)

	if err := base.AddExtension(core.Extension{
		ID:      "hall/billing",
		Name:    "billing",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "charge",
			Kind:    core.KindCallAfter,
			Pattern: "Plotter.*(..)",
			Builtin: ext.BAccounting,
			Config:  map[string]string{"price": "2"},
		}},
		Requires: []string{ext.SessionBundleName},
		Caps:     []string{"net", "clock", "session"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := base.AdaptNode("plotter-A", "plotter-A"); err != nil {
		t.Fatal(err)
	}
	if !node.receiver.Has(ext.SessionBundleName) {
		t.Fatal("implicit session extension missing")
	}

	client := fabric.Node("laptop-1")
	for i := 0; i < 3; i++ {
		if _, err := svc.Call(client, "plotter-A", plotter.ServiceName, "moveTo", "laptop-1", lvm.Int(int64(i)), lvm.Int(0)); err != nil {
			t.Fatal(err)
		}
	}
	bills := db.Query(store.Filter{Device: "billing"})
	if len(bills) != 3 {
		t.Fatalf("bills = %d, want 3", len(bills))
	}
	var total int64
	for _, b := range bills {
		if b.Action != "charge:laptop-1" {
			t.Errorf("bill = %+v", b)
		}
		total += b.Value
	}
	if total != 6 {
		t.Errorf("total charged = %d, want 6", total)
	}
}

// TestPersistenceScenario snapshots every Motor.pos change into the node's
// KV through the orthogonal-persistence extension.
func TestPersistenceScenario(t *testing.T) {
	fabric := transport.NewInProc()
	base, signer := newSignedBase(t, fabric, "base-1", store.NewMemory())
	node := newPlotterNode(t, fabric, "plotter-A", signer)

	if err := base.AddExtension(core.Extension{
		ID:      "hall/persist",
		Name:    "persist",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "snapshot-state",
			Kind:    core.KindFieldSet,
			Pattern: "Motor.pos",
			Builtin: ext.BPersist,
		}},
		Caps: []string{"store"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := base.AdaptNode("plotter-A", "plotter-A"); err != nil {
		t.Fatal(err)
	}

	if err := node.plot.MoveTo(3, 2); err != nil {
		t.Fatal(err)
	}
	vx, okx := node.kv.Get("persist/Motor.pos/x")
	vy, oky := node.kv.Get("persist/Motor.pos/y")
	if !okx || string(vx) != "3" {
		t.Errorf("x snapshot = %q, %v", vx, okx)
	}
	if !oky || string(vy) != "2" {
		t.Errorf("y snapshot = %q, %v", vy, oky)
	}
}

// TestTransparentEncryptionChannel reproduces §3.3's "extension that will
// encrypt every outgoing call from an application and decrypt every incoming
// call", using the paper's flagship crosscut pattern. Neither endpoint's
// application code knows about the cipher; the environment welds it on.
func TestTransparentEncryptionChannel(t *testing.T) {
	fabric := transport.NewInProc()
	base, signer := newSignedBase(t, fabric, "base-1", store.NewMemory())

	// Receiver side: a courier service that stores what it gets.
	courier := newPlotterNode(t, fabric, "courier", signer)
	var received []byte
	courierSvc := svc.NewRegistry(courier.weaver)
	courierSvc.Register("Courier", "recvMessage", []string{"bytes"}, "void", func(args []lvm.Value) (lvm.Value, error) {
		received = append([]byte(nil), args[0].B...)
		return lvm.Nil(), nil
	})
	courierMux := transport.NewMux()
	courierSvc.ServeOn(courierMux)
	stop, err := fabric.Serve("courier-svc", courierMux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	// Sender side: an app whose only outgoing path is Net.sendMessage.
	sender := newPlotterNode(t, fabric, "sender", signer)
	var onWire []byte
	senderSvc := svc.NewRegistry(sender.weaver)
	senderSvc.Register("Net", "sendMessage", []string{"bytes"}, "void", func(args []lvm.Value) (lvm.Value, error) {
		onWire = append([]byte(nil), args[0].B...)
		return svc.Call(fabric.Node("sender"), "courier-svc", "Courier", "recvMessage", "sender", args[0])
	})

	// The hall welds the cipher onto both endpoints: encrypt on every
	// outgoing send* (the paper's 'void *.send*(bytes, ..)' crosscut),
	// decrypt on every incoming recv*.
	if err := base.AddExtension(core.Extension{
		ID: "hall/encrypt-out", Name: "encrypt-out", Version: 1,
		Advices: []core.AdviceSpec{{
			Name: "enc", Kind: core.KindCallBefore,
			Pattern: "void *.send*(bytes, ..)",
			Builtin: ext.BEncrypt, Config: map[string]string{"key": "hall-secret"},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := base.AdaptNode("sender", "sender"); err != nil {
		t.Fatal(err)
	}

	if err := base.RemoveExtension("encrypt-out"); err != nil {
		t.Fatal(err)
	}
	if err := base.AddExtension(core.Extension{
		ID: "hall/decrypt-in", Name: "decrypt-in", Version: 1,
		Advices: []core.AdviceSpec{{
			Name: "dec", Kind: core.KindCallBefore,
			Pattern: "void *.recv*(bytes, ..)",
			Builtin: ext.BDecrypt, Config: map[string]string{"key": "hall-secret"},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := base.AdaptNode("courier", "courier"); err != nil {
		t.Fatal(err)
	}
	// The sender must not get the decryptor: RemoveExtension above revoked
	// the encryptor from the shared policy set before the courier joined,
	// but the sender keeps its already-woven copy? No: revocation withdrew
	// it. Re-weave the encryptor locally to model two halls' disjoint sets.
	if sender.receiver.Has("encrypt-out") {
		t.Fatal("revocation failed")
	}
	encSigned, err := core.Sign(signer, core.Extension{
		ID: "hall/encrypt-out", Name: "encrypt-out", Version: 2,
		Advices: []core.AdviceSpec{{
			Name: "enc", Kind: core.KindCallBefore,
			Pattern: "void *.send*(bytes, ..)",
			Builtin: ext.BEncrypt, Config: map[string]string{"key": "hall-secret"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.receiver.Install(encSigned, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}

	plain := []byte("the drill moves to bay 7 at 14:00")
	if _, err := senderSvc.Invoke("Net", "sendMessage", "app", []lvm.Value{lvm.Bytes(append([]byte(nil), plain...))}); err != nil {
		t.Fatal(err)
	}
	if string(onWire) == string(plain) {
		t.Fatal("payload left the sender in plaintext")
	}
	if string(received) != string(plain) {
		t.Fatalf("courier got %q, want %q", received, plain)
	}
}
