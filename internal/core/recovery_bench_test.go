package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sign"
	"repro/internal/transport"
)

// idleCaller never reaches a network: renewers registered during a recovery
// benchmark sit on the manual clock and never fire.
type idleCaller struct{}

func (idleCaller) Call(context.Context, string, string, any, any) error { return nil }

// BenchmarkReceiverRecover measures node restart cost against journal size:
// replaying N journalled extensions (signature re-verification, validation,
// weaving, lease restoration) into a fresh receiver.
func BenchmarkReceiverRecover(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("exts=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			clk := clock.NewManual(time.Unix(1000, 0))
			signer, err := sign.NewSigner("hall-1")
			if err != nil {
				b.Fatal(err)
			}
			seed, jr := newJournaledReceiver(b, dir, clk, signer)
			for i := 0; i < n; i++ {
				if _, err := seed.Install(
					mustSign(b, signer, recoveryExt(fmt.Sprintf("ext-%03d", i), 1)),
					"base-1", time.Hour); err != nil {
					b.Fatal(err)
				}
			}
			if err := jr.Close(); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r, j := newJournaledReceiver(b, dir, clk, signer)
				b.StartTimer()
				restored, err := r.Recover()
				b.StopTimer()
				if err != nil || restored != n {
					b.Fatalf("restored %d/%d: %v", restored, n, err)
				}
				j.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkBaseRecover measures base restart cost against journal size:
// replaying N node records (4 grants each) and resuming their renewers.
func BenchmarkBaseRecover(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			clk := clock.NewManual(time.Unix(1000, 0))
			signer, err := sign.NewSigner("hall-1")
			if err != nil {
				b.Fatal(err)
			}
			j, err := OpenBaseJournal(dir)
			if err != nil {
				b.Fatal(err)
			}
			deadline := clk.Now().Add(time.Hour).UnixMilli()
			for i := 0; i < n; i++ {
				rec := NodeRecord{ID: fmt.Sprintf("node-%03d", i), Exts: map[string]GrantRecord{}}
				for k := 0; k < 4; k++ {
					rec.Exts[fmt.Sprintf("ext-%d", k)] = GrantRecord{
						Version: 1, LeaseID: fmt.Sprintf("L%d-%d", i, k),
						DurMillis: time.Hour.Milliseconds(), DeadlineMillis: deadline,
					}
				}
				if err := j.Put(fmt.Sprintf("addr-%03d", i), rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			exts := make([]Extension, 4)
			for k := range exts {
				exts[k] = recoveryExt(fmt.Sprintf("ext-%d", k), 1)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				jb, err := OpenBaseJournal(dir)
				if err != nil {
					b.Fatal(err)
				}
				base, err := NewBase(BaseConfig{
					Name: "hall-1", Addr: "base-1", Caller: idleCaller{},
					Signer: signer, Clock: clk, LeaseDur: time.Hour,
					CallTimeout: time.Second, Journal: jb,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range exts {
					if err := base.AddExtension(e); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				restored, err := base.Recover()
				b.StopTimer()
				if err != nil || restored != n {
					b.Fatalf("restored %d/%d: %v", restored, n, err)
				}
				base.Close()
				jb.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkReconcileRound measures the steady-state overhead of one
// anti-entropy round against an in-sync node holding 8 extensions: the
// inventory RPC plus the diff, with nothing to repair.
func BenchmarkReconcileRound(b *testing.B) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		b.Fatal(err)
	}
	_, _, stop := serveReceiver(b, fabric, clk, signer)
	defer stop()
	base, _ := newRecoveryBase(b, fabric, clk, signer, "", 0)
	for i := 0; i < 8; i++ {
		if err := base.AddExtension(recoveryExt(fmt.Sprintf("ext-%d", i), 1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := base.AdaptNode("robot1", "robot1"); err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := base.ReconcileNow(ctx)
		if r := res["robot1"]; !r.InSync {
			b.Fatalf("round not in sync: %+v", r)
		}
	}
}

func mustSign(b *testing.B, s *sign.Signer, e Extension) SignedExtension {
	b.Helper()
	signed, err := Sign(s, e)
	if err != nil {
		b.Fatal(err)
	}
	return signed
}
