package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryWorkloadEmitsDeclaredMetrics runs each workload briefly, untraced
// and traced (a short run scales its set-ups and fleet down), and checks that
// the final line is a correct result carrying exactly the metrics
// BENCHMARK.json declares for that mode.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	path, err := repoFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloadNames() {
		for trace, declared := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			if trace == "1" && testing.Short() {
				continue // the traced runs also time every layer in isolation
			}
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--out", out}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s in %q, declared %q", w, trace, m.Name, got.Unit, m.Unit)
				case !(got.Value > 0):
					t.Errorf("%s trace=%s: metric %s = %g, want > 0", w, trace, m.Name, got.Value)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(out, "ledger.jsonl")); err != nil {
		t.Errorf("no ledger written: %v", err)
	}
}
