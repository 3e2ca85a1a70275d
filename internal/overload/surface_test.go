package overload_test

import (
	"sort"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/sign"
	"repro/internal/transport"
)

// servedMethods lists every method a base station's mux serves
// (cmd/basestation: lookup service, base, ops), the one surface the overload
// front wraps.
func servedMethods(t *testing.T) map[string]bool {
	t.Helper()
	caller := transport.NewInProc().Node("hall-1")
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewBase(core.BaseConfig{Name: "hall-1", Addr: "hall-1", Caller: caller, Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(base.Close)
	mux := transport.NewMux()
	lookup := registry.NewServer(registry.NewLookup(clock.Real{}), mux, caller, clock.Real{})
	t.Cleanup(lookup.Close)
	base.ServeOn(mux)
	transport.ServeOps(mux, nil)

	served := make(map[string]bool)
	for _, m := range mux.Methods() {
		served[m] = true
	}
	return served
}

// TestClassTableMatchesServedMethods keeps the overload table and the served
// RPC surface in step: every served method has an explicit class, and no
// class row names a method that nothing serves.
func TestClassTableMatchesServedMethods(t *testing.T) {
	served := servedMethods(t)
	var unclassified, unserved []string
	for m := range served {
		if _, ok := overload.DefaultClasses[m]; !ok {
			unclassified = append(unclassified, m)
		}
	}
	for m := range overload.DefaultClasses {
		if !served[m] {
			unserved = append(unserved, m)
		}
	}
	sort.Strings(unclassified)
	sort.Strings(unserved)
	if len(unclassified) > 0 {
		t.Errorf("served methods without a class row: %v", unclassified)
	}
	if len(unserved) > 0 {
		t.Errorf("class rows for methods nothing serves: %v", unserved)
	}
}
