package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkTCPCallParallel prices one wire call over loopback TCP when 1, 2
// or 8 callers share one TCPCaller (one connection). Each call carries a
// deadline, as every production call does, and cancels it on return.
func BenchmarkTCPCallParallel(b *testing.B) {
	for _, callers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			caller := NewTCPCaller()
			defer caller.Close()
			call := func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				resp, err := Invoke[wireReq, wireResp](ctx, caller, srv.Addr(), "wecho", wireReq{Msg: "ab", N: 2})
				if err == nil && resp.Msg != "abab" {
					err = fmt.Errorf("resp = %q", resp.Msg)
				}
				return err
			}
			if err := call(); err != nil { // dial outside the timed region
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				n := b.N / callers
				if g < b.N%callers {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := call(); err != nil {
							errs <- err
							return
						}
					}
				}(n)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		})
	}
}
