package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/tsnbuilder/tsnbuilder
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkFrameCodec-8   	 1201886	       996.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig7Hops-8     	       1	1803442511 ns/op	       195.1 mean_µs	       2.12 jitter_µs	       0 loss_%
--- BENCH: BenchmarkSomething
    bench_test.go:42: note
PASS
ok  	github.com/tsnbuilder/tsnbuilder	12.3s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Errorf("header: got %q/%q", doc.Goos, doc.Goarch)
	}
	if doc.Pkg != "github.com/tsnbuilder/tsnbuilder" {
		t.Errorf("pkg: got %q", doc.Pkg)
	}
	if !strings.Contains(doc.CPU, "Xeon") {
		t.Errorf("cpu: got %q", doc.CPU)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("want 2 benchmarks, got %d: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	fc := doc.Benchmarks[0]
	if fc.Name != "BenchmarkFrameCodec-8" || fc.Iterations != 1201886 {
		t.Errorf("codec record: %+v", fc)
	}
	if fc.Metrics["ns/op"] != 996.5 || fc.Metrics["allocs/op"] != 0 {
		t.Errorf("codec metrics: %+v", fc.Metrics)
	}
	fig := doc.Benchmarks[1]
	if fig.Metrics["mean_µs"] != 195.1 || fig.Metrics["jitter_µs"] != 2.12 {
		t.Errorf("custom metrics lost: %+v", fig.Metrics)
	}
}

func TestParseBestOfN(t *testing.T) {
	// -count=3 style repeats collapse to the fastest whole record —
	// the slow middle sample's custom metrics must not leak through.
	doc, err := Parse(strings.NewReader(`
BenchmarkX-8   100   300.0 ns/op   5 B/op   1 allocs/op   7.0 mean_µs
BenchmarkX-8   100   500.0 ns/op   9 B/op   2 allocs/op   9.0 mean_µs
BenchmarkX-8   200   250.0 ns/op   4 B/op   1 allocs/op   6.5 mean_µs
BenchmarkY-8   100   100.0 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("want 2 collapsed benchmarks, got %+v", doc.Benchmarks)
	}
	x := doc.Benchmarks[0]
	if x.Name != "BenchmarkX-8" || x.Iterations != 200 {
		t.Errorf("kept wrong sample: %+v", x)
	}
	if x.Metrics["ns/op"] != 250 || x.Metrics["B/op"] != 4 || x.Metrics["mean_µs"] != 6.5 {
		t.Errorf("metrics not from the fastest sample: %+v", x.Metrics)
	}
	if doc.Benchmarks[1].Name != "BenchmarkY-8" {
		t.Errorf("single-sample benchmark lost: %+v", doc.Benchmarks[1])
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	doc, err := Parse(strings.NewReader("hello\nBenchmark\nBenchmarkX notanumber\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("want 0 benchmarks, got %+v", doc.Benchmarks)
	}
}

func docOf(benches ...Benchmark) *Doc { return &Doc{Benchmarks: benches} }

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 100, Metrics: map[string]float64{
		"ns/op": ns, "allocs/op": allocs,
	}}
}

func TestCompareClean(t *testing.T) {
	base := docOf(bench("BenchmarkA", 100, 2), bench("BenchmarkB", 50, 0))
	cur := docOf(bench("BenchmarkA", 110, 2), bench("BenchmarkB", 45, 0))
	regs, added, removed := Compare(base, cur, 20)
	if len(regs) != 0 || len(added) != 0 || len(removed) != 0 {
		t.Fatalf("regs=%v added=%v removed=%v", regs, added, removed)
	}
}

func TestCompareNsOpRegression(t *testing.T) {
	base := docOf(bench("BenchmarkA", 100, 0))
	cur := docOf(bench("BenchmarkA", 121, 0)) // +21% > 20% threshold
	regs, _, _ := Compare(base, cur, 20)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("regs = %v", regs)
	}
	if regs[0].Pct < 20.9 || regs[0].Pct > 21.1 {
		t.Fatalf("pct = %v", regs[0].Pct)
	}
	// Exactly at the threshold passes: the gate is strictly greater.
	cur = docOf(bench("BenchmarkA", 120, 0))
	if regs, _, _ := Compare(base, cur, 20); len(regs) != 0 {
		t.Fatalf("at-threshold flagged: %v", regs)
	}
}

func TestCompareAnyAllocIncreaseFails(t *testing.T) {
	base := docOf(bench("BenchmarkHot", 100, 0))
	cur := docOf(bench("BenchmarkHot", 100, 1))
	regs, _, _ := Compare(base, cur, 20)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("regs = %v", regs)
	}
	// Alloc decreases are fine.
	base = docOf(bench("BenchmarkHot", 100, 5))
	cur = docOf(bench("BenchmarkHot", 100, 3))
	if regs, _, _ := Compare(base, cur, 20); len(regs) != 0 {
		t.Fatalf("alloc decrease flagged: %v", regs)
	}
}

func TestCompareAllocNoiseFloor(t *testing.T) {
	// Ppm-scale jitter on an allocation-heavy macro benchmark passes:
	// +3 allocs on a 1.3M-alloc baseline is runtime noise, not a leak.
	base := docOf(bench("BenchmarkMacro", 100, 1_300_000))
	cur := docOf(bench("BenchmarkMacro", 100, 1_300_003))
	if regs, _, _ := Compare(base, cur, 20); len(regs) != 0 {
		t.Fatalf("noise-scale alloc jitter flagged: %v", regs)
	}
	// A real regression — well past 0.1% — still fails.
	cur = docOf(bench("BenchmarkMacro", 100, 1_320_000))
	regs, _, _ := Compare(base, cur, 20)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("1.5%% alloc growth not flagged: %v", regs)
	}
	// Zero-alloc baselines stay zero-tolerance even for +1.
	base = docOf(bench("BenchmarkHot", 100, 0))
	cur = docOf(bench("BenchmarkHot", 100, 1))
	if regs, _, _ := Compare(base, cur, 20); len(regs) != 1 {
		t.Fatalf("zero-alloc baseline increase not flagged: %v", regs)
	}
}

func TestCompareAddedRemovedNeverFail(t *testing.T) {
	base := docOf(bench("BenchmarkOld", 100, 0))
	cur := docOf(bench("BenchmarkNew", 9999, 50))
	regs, added, removed := Compare(base, cur, 20)
	if len(regs) != 0 {
		t.Fatalf("disjoint sets produced regressions: %v", regs)
	}
	if len(added) != 1 || added[0] != "BenchmarkNew" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "BenchmarkOld" {
		t.Fatalf("removed = %v", removed)
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc *Doc) string {
		path := filepath.Join(dir, name)
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", docOf(bench("BenchmarkA", 100, 0)))
	same := write("same.json", docOf(bench("BenchmarkA", 100, 0)))
	slow := write("slow.json", docOf(bench("BenchmarkA", 200, 0)))

	var out, errw strings.Builder
	if code := runCompare([]string{old, same}, 20, &out, &errw); code != 0 {
		t.Fatalf("clean compare exit %d: %s%s", code, out.String(), errw.String())
	}
	if code := runCompare([]string{old, slow}, 20, &out, &errw); code != 1 {
		t.Fatalf("regressed compare exit %d", code)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("no REGRESSION line in output: %s", out.String())
	}
	if code := runCompare([]string{old}, 20, &out, &errw); code != 2 {
		t.Fatalf("usage error exit %d", code)
	}
	if code := runCompare([]string{old, filepath.Join(dir, "missing.json")}, 20, &out, &errw); code != 2 {
		t.Fatalf("missing file exit %d", code)
	}
}

func TestRunCompareNothingInCommonFails(t *testing.T) {
	// A run whose names all differ from the baseline (here by the
	// GOMAXPROCS suffix) judged nothing; it must not report a pass.
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	cur := filepath.Join(dir, "cur.json")
	for path, name := range map[string]string{old: "BenchmarkA", cur: "BenchmarkA-2"} {
		b, err := json.Marshal(docOf(bench(name, 100, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errw strings.Builder
	if code := runCompare([]string{old, cur}, 20, &out, &errw); code != 2 {
		t.Fatalf("disjoint compare exit %d, want 2: %s", code, out.String())
	}
	if !strings.Contains(errw.String(), "no benchmark in common") {
		t.Fatalf("stderr = %q", errw.String())
	}
}
