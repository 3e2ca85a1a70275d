package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/lvm"
)

var updateVerdicts = flag.Bool("update", false, "rewrite testdata/verdicts.golden.json from the current code")

const verdictGolden = "testdata/verdicts.golden.json"

// exampleVerdict is everything the toolchain says about one example advice:
// its disassembly and the full admission report of the program.
type exampleVerdict struct {
	File   string  `json:"file"`
	Disasm string  `json:"disasm"`
	Report *Report `json:"report"`
}

// fragmentVerdict is the assembler's answer to one adversarial fragment:
// the exact error text, or the disassembly of what it accepted.
type fragmentVerdict struct {
	Src    string `json:"src"`
	Error  string `json:"error,omitempty"`
	Disasm string `json:"disasm,omitempty"`
}

type verdicts struct {
	Examples  []exampleVerdict  `json:"examples"`
	Fragments []fragmentVerdict `json:"fragments"`
}

// TestVerdictGolden pins, byte for byte, what the assembler and the analyzer
// say about the example corpus (disassembly, host calls, caps, flows with
// witness pcs, fuel, unreachable pcs, warnings) and the assembler's error
// text for every adversarial fragment. Run with -update to rewrite it after
// a deliberate change of verdict.
func TestVerdictGolden(t *testing.T) {
	got := computeVerdicts(t)
	if *updateVerdicts {
		if err := os.WriteFile(verdictGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("verdicts differ from %s; the first difference is at byte %d:\n got: %.200s\nwant: %.200s",
			verdictGolden, firstDiff(got, want), got[firstDiff(got, want):], want[firstDiff(got, want):])
	}
}

func computeVerdicts(t *testing.T) []byte {
	t.Helper()
	var v verdicts
	entries, err := os.ReadDir(adviceDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".lasm" {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	for _, name := range files {
		src, err := os.ReadFile(filepath.Join(adviceDir, name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lvm.Assemble(string(src))
		if err != nil {
			t.Fatalf("%s: assemble: %v", name, err)
		}
		rep, err := AnalyzeProgram(prog)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		v.Examples = append(v.Examples, exampleVerdict{File: name, Disasm: lvm.Disassemble(prog), Report: rep})
	}

	data, err := os.ReadFile("../testdata/asm_fragments.json")
	if err != nil {
		t.Fatal(err)
	}
	var frags []string
	if err := json.Unmarshal(data, &frags); err != nil {
		t.Fatal(err)
	}
	for _, src := range frags {
		fv := fragmentVerdict{Src: src}
		if prog, err := lvm.Assemble(src); err != nil {
			fv.Error = err.Error()
		} else {
			fv.Disasm = lvm.Disassemble(prog)
		}
		v.Fragments = append(v.Fragments, fv)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
