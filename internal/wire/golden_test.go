// Golden wire-format vectors: one frozen encoding per hot message type,
// checked byte for byte. Once old nodes exist in a fleet, the format cannot
// change silently — any intentional change must bump wire.Version and
// regenerate these files with:
//
//	WIRE_GOLDEN_UPDATE=1 go test ./internal/wire/ -run TestGoldenVectors
package wire_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/registry"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// goldenMessages are fixed, fully populated values of every hot message
// type. Field values are arbitrary but frozen: changing them invalidates the
// vectors just as a codec change would.
func goldenMessages() map[string]wire.Marshaler {
	signed := core.SignedExtension{
		Ext: core.Extension{
			ID:       "ext-0001",
			Name:     "policy",
			Version:  3,
			Priority: 10,
			Advices: []core.AdviceSpec{{
				Name:    "audit",
				Kind:    "call-before",
				Pattern: "cell/*/enter",
				Builtin: "",
				Config:  map[string]string{"level": "info", "sink": "log"},
				Code:    "PUSHK 1\nRET",
			}},
			Requires: []string{"session"},
			Caps:     []string{"hostcall.log"},
			Meta:     map[string]string{"origin": "base-1"},
		},
		Sig: sign.Signature{
			SignerName: "base-1",
			PublicKey:  []byte{0x01, 0x02, 0x03, 0x04},
			Sig:        []byte{0xAA, 0xBB, 0xCC},
		},
	}
	return map[string]wire.Marshaler{
		"renew_ext_req":    core.RenewExtReq{LeaseID: "lease-42", DurMillis: 60_000},
		"renew_ext_resp":   core.RenewExtResp{DurMillis: 45_000},
		"renew_batch_req":  core.RenewBatchReq{Items: []core.RenewExtReq{{LeaseID: "lease-1", DurMillis: 60_000}, {LeaseID: "lease-2", DurMillis: 30_000}}},
		"renew_batch_resp": core.RenewBatchResp{Items: []core.RenewItemResp{{DurMillis: 60_000}, {DurMillis: 0, Err: "lease: expired"}}},
		// The observability piggyback: the two vectors above pin a renewal
		// that asks for no report, these pin one that asks and one that
		// carries it.
		"renew_batch_req_obs": core.RenewBatchReq{Items: []core.RenewExtReq{{LeaseID: "lease-1", DurMillis: 60_000}}, WantObs: true},
		"renew_batch_resp_obs": core.RenewBatchResp{
			Items: []core.RenewItemResp{{DurMillis: 60_000}},
			Obs: &core.ObsReport{
				Methods: []core.ObsMethodDelta{
					{Method: "midas.renewBatch", Count: 12, Errors: 1, SumNs: 3_456_000},
					{Method: "plotter.draw", Count: 90, SumNs: 77_000},
				},
				SpansDropped: 5,
				SampledOut:   990,
				TailKept:     3,
			},
		},
		"install_req":      core.InstallReq{Signed: signed, BaseAddr: "base-1", DurMillis: 60_000},
		"install_resp":     core.InstallResp{LeaseID: "lease-77"},
		"apply_batch_req":  core.ApplyBatchReq{Installs: []core.InstallReq{{Signed: signed, BaseAddr: "base-1", DurMillis: 60_000}}, Revokes: []string{"stale-ext"}},
		"apply_batch_resp": core.ApplyBatchResp{Installs: []core.InstallItemResp{{LeaseID: "lease-78"}}, Revokes: []core.RevokeItemResp{{}}},
		"empty_resp":       core.EmptyResp{},
		"inventory_resp":   core.InventoryResp{Node: "node-00017", Items: []core.InventoryItem{{Name: "policy", Version: 3, BaseAddr: "base-1", LeaseID: "lease-42", DeadlineMillis: 1_060_000}}},
		"register_req":     registry.RegisterReq{Item: registry.ServiceItem{ID: "svc-9", Name: "midas.adaptation", Addr: "10.0.0.9:4410", Attrs: map[string]string{"cell": "north", "tier": "edge"}}, DurMillis: 120_000},
		"lease_resp":       registry.LeaseResp{LeaseID: "rl-3", DurMillis: 120_000},
		"renew_req":        registry.RenewReq{LeaseID: "rl-3", DurMillis: 120_000},
		"deregister_req":   registry.DeregisterReq{ServiceID: "svc-9"},
		"find_req":         registry.FindReq{Tmpl: registry.Template{Name: "midas.*", Attrs: map[string]string{"cell": "north"}}},
		"find_resp":        registry.FindResp{Items: []registry.ServiceItem{{ID: "svc-9", Name: "midas.adaptation", Addr: "10.0.0.9:4410"}}},
		"watch_req":        registry.WatchReq{Tmpl: registry.Template{Name: "midas.*"}, DurMillis: 60_000, Addr: "node-3", Method: "lookup.event"},
		"watch_resp":       registry.WatchResp{WatchID: "w-5", DurMillis: 60_000},
		"renew_watch_req":  registry.RenewWatchReq{WatchID: "w-5", DurMillis: 60_000},
		"span_context":     trace.SpanContext{TraceID: "t-0123456789abcdef", SpanID: "s-00ff"},
		// The adapted remote call: one argument of every scalar kind.
		"invoke_req": svc.InvokeReq{Service: "Robot", Method: "moveArm", Caller: "operator", Args: []lvm.Value{
			lvm.Nil(), lvm.Int(-300), lvm.Bool(true), lvm.Str("arm-2"), lvm.Bytes([]byte{0xCA, 0xFE}),
		}},
		"invoke_resp": svc.InvokeResp{Result: lvm.Int(600)},
		// The base's record sink.
		"post_req": core.PostReq{Record: store.Record{Seq: 7, Robot: "robot:1:1", Device: "motor:x", Action: "rotate",
			Value: -120, AtMillis: 1_060_000, DurMilli: 250}},
		// Remote events: the lookup's watcher event, delivered to the
		// listener as the request body.
		"registry_event": registry.Event{Kind: registry.Added,
			Item:  registry.ServiceItem{ID: "svc-9", Name: "midas.adaptation", Addr: "10.0.0.9:4410", Attrs: map[string]string{"kind": "plotter"}},
			Trace: trace.SpanContext{TraceID: "t-0123456789abcdef", SpanID: "s-00ff"}},
		// The operator read RPC.
		"ops_req":  transport.OpsReq{Path: "/records?robot=robot%3A1%3A1"},
		"ops_resp": transport.OpsResp{Status: 200, Body: []byte("[]\n")},
	}
}

func TestGoldenVectors(t *testing.T) {
	update := os.Getenv("WIRE_GOLDEN_UPDATE") != ""
	for name, msg := range goldenMessages() {
		t.Run(name, func(t *testing.T) {
			got := wire.Marshal(msg)
			path := filepath.Join("testdata", name+".hex")
			if update {
				if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden vector (WIRE_GOLDEN_UPDATE=1 to generate): %v", err)
			}
			want, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
			if err != nil {
				t.Fatalf("corrupt golden vector %s: %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("wire format drifted for %s — old nodes would stop decoding this; "+
					"bump wire.Version instead of changing the format in place\n got: %s\nwant: %s",
					name, hex.EncodeToString(got), hex.EncodeToString(want))
			}
			// The frozen bytes must also decode back to the exact value.
			out := reflect.New(reflect.TypeOf(msg)).Interface().(wire.Unmarshaler)
			if err := wire.Unmarshal(want, out); err != nil {
				t.Fatalf("golden vector does not decode: %v", err)
			}
			if !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), msg) {
				t.Fatalf("golden vector decodes to a different value:\n got: %#v\nwant: %#v",
					reflect.ValueOf(out).Elem().Interface(), msg)
			}
		})
	}
	if update {
		fmt.Println("golden vectors regenerated under internal/wire/testdata/")
	}
}
