package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/transport"
)

// tickSource is a second advice body, needing no capability beyond the
// always-granted log namespace.
const tickSource = `
class Ext
  method void advice()
    push "tick"
    hostcall log.info 1
    pop
  end
end`

// confusedSource assembles but fails typed verification: add on a string.
const confusedSource = `
class Ext
  method void advice()
    push "x"
    push 1
    add
    pop
  end
end`

var auditCaps = []string{"clock", "store"}

// vettedExt is version v of extension "policy" carrying one mobile advice.
func vettedExt(v int, caps []string, code string) Extension {
	ext := codeExt("policy", caps, code)
	ext.Version = v
	return ext
}

// vetter is one instance that vets the advice of every push it takes: a base
// at admission, through ReplaceExtension, or a receiver before it weaves,
// through Install. Each push carries the next version of "policy".
type vetter struct {
	cache  *adviceCache
	reg    *metrics.Registry
	reused string // the instance's reuse counter
	push   func(caps []string, code string) (Extension, error)
	// report returns the admission report the instance stored for ext, or
	// nil when it stores none.
	report func(ext Extension) *AnalysisReport
}

func (v *vetter) reusedCount() uint64 { return v.reg.Counter(v.reused).Value() }

// forEachVetter runs fn against a fresh base and a fresh receiver.
func forEachVetter(t *testing.T, fn func(t *testing.T, v *vetter)) {
	t.Run("base", func(t *testing.T) { fn(t, newBaseVetter(t)) })
	t.Run("receiver", func(t *testing.T) { fn(t, newReceiverVetter(t)) })
}

func newVettingBase(t *testing.T) (*Base, *metrics.Registry) {
	t.Helper()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{Name: "base-1", Addr: "base-1", Caller: transport.NewInProc().Node("base-1"), Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	reg := metrics.New()
	b.Instrument(reg)
	return b, reg
}

func newBaseVetter(t *testing.T) *vetter {
	t.Helper()
	b, reg := newVettingBase(t)
	// A builtin-only first version, so every vetted push is a replace.
	if err := b.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	version := 1
	return &vetter{
		cache: &b.vetted, reg: reg, reused: "base.analyses_reused",
		push: func(caps []string, code string) (Extension, error) {
			version++
			ext := vettedExt(version, caps, code)
			return ext, b.ReplaceExtension(ext)
		},
		report: func(ext Extension) *AnalysisReport {
			rep, ok := b.AnalysisFor(ext.Name)
			if !ok || rep.Version != ext.Version {
				return nil
			}
			return &rep
		},
	}
}

func newReceiverVetter(t *testing.T) *vetter {
	t.Helper()
	n := newTestNode(t)
	reg := metrics.New()
	n.receiver.Instrument(reg)
	version := 0
	return &vetter{
		cache: &n.receiver.vetted, reg: reg, reused: "ext.analyses_reused",
		push: func(caps []string, code string) (Extension, error) {
			version++
			ext := vettedExt(version, caps, code)
			signed, err := Sign(n.signer, ext)
			if err != nil {
				return ext, err
			}
			_, err = n.receiver.Install(signed, "base-1", time.Minute)
			return ext, err
		},
		report: func(Extension) *AnalysisReport { return nil },
	}
}

// cachedBodies returns how many bodies c holds, and the entry for source.
func cachedBodies(c *adviceCache, source string) (int, *adviceProgram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.progs), c.progs[source]
}

// TestVettedAdviceAnalysedOncePerBody rolls out six versions that alternate
// two bodies: each instance analyses each body once and reuses it four
// times, and what it reuses is exactly what an uncached analysis builds.
func TestVettedAdviceAnalysedOncePerBody(t *testing.T) {
	forEachVetter(t, func(t *testing.T, v *vetter) {
		bodies := []struct {
			caps []string
			code string
		}{{auditCaps, auditSource}, {nil, tickSource}}
		for i := 0; i < 6; i++ {
			b := bodies[i%2]
			ext, err := v.push(b.caps, b.code)
			if err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			want, err := AnalyzeExtension(ext)
			if err != nil {
				t.Fatal(err)
			}
			if got := v.report(ext); got != nil && !reflect.DeepEqual(got, want) {
				t.Errorf("push %d: stored report %+v, uncached %+v", i, got, want)
			}
			fresh, err := analyzeAdvice(b.code)
			if err != nil {
				t.Fatal(err)
			}
			if _, kept := cachedBodies(v.cache, b.code); !reflect.DeepEqual(kept, fresh) {
				t.Errorf("push %d: kept analysis differs from an uncached one", i)
			}
		}
		if got := v.reusedCount(); got != 4 {
			t.Errorf("%s = %d, want 4", v.reused, got)
		}
		if n, _ := cachedBodies(v.cache, ""); n != 2 {
			t.Errorf("%d bodies kept, want 2", n)
		}
	})
}

// TestVettedAdviceKeyIsExactSource checks that a body differing from a vetted
// one by a single byte is analysed afresh.
func TestVettedAdviceKeyIsExactSource(t *testing.T) {
	tock := strings.Replace(tickSource, "tick", "tock", 1)
	if len(tock) != len(tickSource) {
		t.Fatal("tock must differ from tick in one byte")
	}
	forEachVetter(t, func(t *testing.T, v *vetter) {
		for _, code := range []string{tickSource, tock} {
			if _, err := v.push(nil, code); err != nil {
				t.Fatal(err)
			}
		}
		if got := v.reusedCount(); got != 0 {
			t.Errorf("%s = %d after two distinct bodies, want 0", v.reused, got)
		}
		if n, _ := cachedBodies(v.cache, ""); n != 2 {
			t.Errorf("%d bodies kept, want 2", n)
		}
		if _, err := v.push(nil, tock); err != nil {
			t.Fatal(err)
		}
		if got := v.reusedCount(); got != 1 {
			t.Errorf("%s = %d after repeating a body, want 1", v.reused, got)
		}
	})
}

// TestVettedAdviceRejectedBodyNeverKept pushes a body the analyser rejects
// three times: each push is rejected alike, and none reuses anything.
func TestVettedAdviceRejectedBodyNeverKept(t *testing.T) {
	forEachVetter(t, func(t *testing.T, v *vetter) {
		var first string
		for i := 0; i < 3; i++ {
			_, err := v.push(nil, confusedSource)
			if err == nil || !strings.Contains(err.Error(), "add") {
				t.Fatalf("push %d: want a typed-verification rejection, got %v", i, err)
			}
			// Neither instance names the version in its refusal.
			if i == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("push %d rejected with %q, first push with %q", i, err, first)
			}
		}
		if got := v.reusedCount(); got != 0 {
			t.Errorf("%s = %d, want 0", v.reused, got)
		}
		if n, _ := cachedBodies(v.cache, ""); n != 0 {
			t.Errorf("%d bodies kept, want none", n)
		}
	})
}

// TestVettedAdviceKeepsPerExtensionChecks vets audit, which demands store,
// then re-pushes it under a declaration that lacks store. The base's
// admission and the receiver's pre-weave check refuse the re-push exactly as
// an instance that never saw the body does, though the analysis is reused.
func TestVettedAdviceKeepsPerExtensionChecks(t *testing.T) {
	underDeclared := []string{"clock"}
	t.Run("base", func(t *testing.T) {
		warm, reg := newVettingBase(t)
		if err := warm.AddExtension(vettedExt(1, auditCaps, auditSource)); err != nil {
			t.Fatal(err)
		}
		cold, _ := newVettingBase(t)
		if err := cold.AddExtension(noopExt("policy", 1)); err != nil {
			t.Fatal(err)
		}
		ext := vettedExt(2, underDeclared, auditSource)
		want := cold.ReplaceExtension(ext)
		if want == nil || !strings.Contains(want.Error(), "undeclared capabilities [store]") {
			t.Fatalf("cold base: want an undeclared-store refusal, got %v", want)
		}
		got := warm.ReplaceExtension(ext)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("warm base refused with %v, cold base with %v", got, want)
		}
		if n := reg.Counter("base.analyses_reused").Value(); n != 1 {
			t.Errorf("base.analyses_reused = %d, want 1", n)
		}
		if n := reg.Counter("base.admission_rejected").Value(); n != 1 {
			t.Errorf("base.admission_rejected = %d, want 1", n)
		}
		if rep, _ := warm.AnalysisFor("policy"); rep.Version != 1 {
			t.Errorf("refused push replaced the stored report: version %d", rep.Version)
		}
	})
	t.Run("receiver", func(t *testing.T) {
		warm := newTestNode(t)
		reg := metrics.New()
		warm.receiver.Instrument(reg)
		signed, err := Sign(warm.signer, vettedExt(1, auditCaps, auditSource))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.receiver.Install(signed, "base-1", time.Minute); err != nil {
			t.Fatal(err)
		}
		// AllowAll grants exactly the declared set, so this grant lacks store.
		signed, err = Sign(warm.signer, vettedExt(2, underDeclared, auditSource))
		if err != nil {
			t.Fatal(err)
		}
		cold := newTestNode(t)
		cold.receiver.cfg.Trust.Trust("hall-1", warm.signer.PublicKey())
		_, want := cold.receiver.Install(signed, "base-1", time.Minute)
		if want == nil || !strings.Contains(want.Error(), "beyond grant") {
			t.Fatalf("cold receiver: want a pre-weave refusal, got %v", want)
		}
		_, got := warm.receiver.Install(signed, "base-1", time.Minute)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("warm receiver refused with %v, cold receiver with %v", got, want)
		}
		if n := reg.Counter("ext.analyses_reused").Value(); n != 1 {
			t.Errorf("ext.analyses_reused = %d, want 1", n)
		}
		if info := warm.receiver.Installed(); len(info) != 1 || info[0].Version != 1 {
			t.Errorf("installed after the refusal: %+v, want policy version 1", info)
		}
	})
}

// TestVettedAdviceTableBounded pushes more distinct bodies than the table
// holds: it stops growing at its bound, keeps the newest bodies and evicts
// the oldest.
func TestVettedAdviceTableBounded(t *testing.T) {
	bodies := make([]string, vettedAdviceMax+8)
	for i := range bodies {
		bodies[i] = strings.Replace(tickSource, `"tick"`, fmt.Sprintf(`"tick-%d"`, i), 1)
	}
	forEachVetter(t, func(t *testing.T, v *vetter) {
		for _, code := range bodies {
			if _, err := v.push(nil, code); err != nil {
				t.Fatal(err)
			}
			if n, _ := cachedBodies(v.cache, ""); n > vettedAdviceMax {
				t.Fatalf("%d bodies kept, bound %d", n, vettedAdviceMax)
			}
		}
		if n, _ := cachedBodies(v.cache, ""); n != vettedAdviceMax {
			t.Errorf("%d bodies kept, want %d", n, vettedAdviceMax)
		}
		if _, kept := cachedBodies(v.cache, bodies[0]); kept != nil {
			t.Error("the oldest body is still kept")
		}
		if _, err := v.push(nil, bodies[len(bodies)-1]); err != nil {
			t.Fatal(err)
		}
		if got := v.reusedCount(); got != 1 {
			t.Errorf("%s = %d after repeating the newest body, want 1", v.reused, got)
		}
		if _, err := v.push(nil, bodies[0]); err != nil {
			t.Fatal(err)
		}
		if got := v.reusedCount(); got != 1 {
			t.Errorf("%s = %d after repeating an evicted body, want 1", v.reused, got)
		}
		if n, _ := cachedBodies(v.cache, ""); n != vettedAdviceMax {
			t.Errorf("%d bodies kept after re-vetting an evicted one, want %d", n, vettedAdviceMax)
		}
	})
}

// TestVettedAdviceConcurrentInstallsAndRollout has several goroutines install
// versions of their own extension, all carrying one body, on one receiver
// and run its woven advice, while a base rolls versions of another
// extension out to the same receiver. Every body compiled from a shared
// analysis runs beside the others, so -race sees any write to what they
// share.
func TestVettedAdviceConcurrentInstallsAndRollout(t *testing.T) {
	c := newCluster(t, time.Minute)
	defer c.close()
	baseReg, nodeReg := metrics.New(), metrics.New()
	c.base.Instrument(baseReg)
	c.receiver.Instrument(nodeReg)
	site := c.weaver.RegisterMethodSite(aop.MethodEntry, aop.Signature{
		Class: "Motor", Method: "rotate", Return: "void", Params: []string{"int"},
	})
	// Both bodies clamp the first argument and call nothing outside ctx, so
	// the cluster's empty host serves them.
	limit90 := readAdvice(t, "movelimit.lasm")
	limit80 := strings.ReplaceAll(limit90, "push 90", "push 80")
	if err := c.base.AddExtension(vettedExt(1, nil, limit90)); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	const installers, versions = 4, 10
	var wg sync.WaitGroup
	for g := 0; g < installers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				ext := codeExt(fmt.Sprintf("local-%d", g), nil, limit90)
				ext.Version = v
				signed, err := Sign(c.base.cfg.Signer, ext)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.receiver.Install(signed, "local", time.Minute); err != nil {
					t.Errorf("local-%d@%d: %v", g, v, err)
					return
				}
				ctx := &aop.Context{Sig: site.Sig, Args: []lvm.Value{lvm.Int(120)}}
				if err := site.Dispatch(ctx); err != nil {
					t.Errorf("dispatch: %v", err)
					return
				}
				if got := ctx.Arg(0).I; got > 90 {
					t.Errorf("argument %d after the clamps, want at most 90", got)
				}
			}
		}()
	}
	last := 1
	for v := 2; v <= 1+2*versions; v++ {
		code := limit90
		if v%2 == 0 {
			code = limit80
		}
		if err := c.base.ReplaceExtension(vettedExt(v, nil, code)); err != nil {
			t.Error(err)
			break
		}
		last = v
	}
	wg.Wait()

	if n := baseReg.Counter("base.push_errors").Value(); n != 0 {
		t.Errorf("base.push_errors = %d, want 0", n)
	}
	want := map[string]int{"policy": last}
	for g := 0; g < installers; g++ {
		want[fmt.Sprintf("local-%d", g)] = versions
	}
	got := map[string]int{}
	for _, info := range c.receiver.Installed() {
		got[info.Name] = info.Version
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("installed %v, want %v", got, want)
	}
	// The base analyses each body once. So does the receiver: limit90 arrived
	// with the adapt before the installers started, and only the base pushes
	// limit80.
	if n, want := baseReg.Counter("base.analyses_reused").Value(), uint64(last-2); n != want {
		t.Errorf("base.analyses_reused = %d, want %d", n, want)
	}
	if n, want := nodeReg.Counter("ext.analyses_reused").Value(), uint64(last+installers*versions-2); n != want {
		t.Errorf("ext.analyses_reused = %d, want %d", n, want)
	}
}
