package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

const exampleAdviceDir = "../../examples/advice"

// exampleAdvice loads the example advice corpus, sorted by file name.
func exampleAdvice(tb testing.TB) (names, srcs []string) {
	tb.Helper()
	entries, err := os.ReadDir(exampleAdviceDir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".lasm" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		srcs = append(srcs, readAdvice(tb, name))
	}
	if len(names) == 0 {
		tb.Fatal("no example advice")
	}
	return names, srcs
}

func readAdvice(tb testing.TB, name string) string {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join(exampleAdviceDir, name))
	if err != nil {
		tb.Fatal(err)
	}
	return string(src)
}

// BenchmarkAnalyzeAdvice prices what vetting one advice body costs: assemble,
// shape check and the full static analysis. The base pays it once per
// distinct body at admission and every receiver once more before weaving.
func BenchmarkAnalyzeAdvice(b *testing.B) {
	names, srcs := exampleAdvice(b)
	for i, name := range names {
		src := srcs[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := analyzeAdvice(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// analyzeAdviceAllocBudget caps the allocations of vetting one advice body
// (assemble, shape check and full analysis), which the base pays at
// admission and every receiver pays again before weaving, once per distinct
// body each. Before the
// assembler and the dataflow engine reused their scratch it was 304
// (movelimit) and 291 (audit).
const analyzeAdviceAllocBudget = 100

func TestAnalyzeAdviceAllocBudget(t *testing.T) {
	for _, name := range []string{"movelimit.lasm", "audit.lasm"} {
		src := readAdvice(t, name)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := analyzeAdvice(src); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per analyzeAdvice", name, allocs)
		if allocs > analyzeAdviceAllocBudget {
			t.Errorf("%s: analyzeAdvice makes %.0f allocs, budget %d", name, allocs, analyzeAdviceAllocBudget)
		}
	}
}

// BenchmarkReceiverInstall prices one Receiver.Install of a new version of
// an extension carrying audit.lasm: verify, grant, the pre-weave analysis and
// checks, compile and the weave replace. In fresh every version carries a
// body the receiver has not seen (audit.lasm with a distinct trailing
// comment), so each install analyses it; in vetted every version carries the
// same body, so each reuses the receiver's analysis. Signing is not timed.
func BenchmarkReceiverInstall(b *testing.B) {
	audit := readAdvice(b, "audit.lasm")
	for _, mode := range []string{"fresh", "vetted"} {
		b.Run(mode, func(b *testing.B) {
			n := newTestNode(b)
			signed := make([]SignedExtension, b.N)
			for i := range signed {
				code := audit
				if mode == "fresh" {
					code = fmt.Sprintf("%s\n; version %d\n", audit, i+1)
				}
				s, err := Sign(n.signer, vettedExt(i+1, auditCaps, code))
				if err != nil {
					b.Fatal(err)
				}
				signed[i] = s
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, s := range signed {
				if _, err := n.receiver.Install(s, "base-1", time.Hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
