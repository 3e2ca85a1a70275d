package lvm

import (
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// exampleAdvice loads the example advice corpus, sorted by file name.
func exampleAdvice(tb testing.TB) (names, srcs []string) {
	tb.Helper()
	const dir = "../../examples/advice"
	entries, err := os.ReadDir(dir)
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
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	if len(names) == 0 {
		tb.Fatal("no example advice")
	}
	return names, srcs
}

// BenchmarkAssemble prices the assembler alone over each example advice: the
// first step of every admission at the base and of every install at a
// receiver.
func BenchmarkAssemble(b *testing.B) {
	names, srcs := exampleAdvice(b)
	for i, name := range names {
		src := srcs[i]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := Assemble(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
