// Codec micro-benchmarks: the wire codec on the hottest message type,
// RenewBatchReq, at singleton, one-batch and storm sizes. Run with:
//
//	go test -run '^$' -bench WireCodec -benchmem ./internal/wire/
package wire_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// benchRenewBatch builds an n-lease renewal batch with realistic lease IDs.
func benchRenewBatch(n int) core.RenewBatchReq {
	req := core.RenewBatchReq{Items: make([]core.RenewExtReq, n)}
	for i := range req.Items {
		req.Items[i] = core.RenewExtReq{
			LeaseID:   fmt.Sprintf("node-%05d-L%d", i, i%7),
			DurMillis: 60_000,
		}
	}
	return req
}

var benchSizes = []int{1, 64, 1024}

func BenchmarkWireCodecEncode(b *testing.B) {
	for _, n := range benchSizes {
		req := benchRenewBatch(n)
		b.Run(fmt.Sprintf("renewBatch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = wire.Marshal(req)
			}
		})
	}
}

func BenchmarkWireCodecDecode(b *testing.B) {
	for _, n := range benchSizes {
		data := wire.Marshal(benchRenewBatch(n))
		b.Run(fmt.Sprintf("renewBatch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out core.RenewBatchReq
				if err := wire.Unmarshal(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
