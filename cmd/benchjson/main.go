// Command benchjson converts `go test -bench` text output into a JSON
// document suitable for dashboards and regression tracking:
//
//	go test -bench=. -benchmem -short . | benchjson -o BENCH_20260806.json
//
// Each benchmark line becomes one record with its iteration count and
// every reported metric (ns/op, B/op, allocs/op, and custom
// b.ReportMetric units like mean_µs). Non-benchmark lines are ignored,
// so the full `go test` stream can be piped in unfiltered.
//
// Repeated samples of one benchmark (`-count=N`, or several runs
// concatenated) collapse to the sample with the lowest ns/op. The
// minimum is the standard noise estimator for wall-clock benchmarks: a
// sample can only be slowed down by scheduler preemption, frequency
// scaling, or GC pauses from neighbouring benchmarks, never sped up,
// so the fastest observation is the closest to the code's true cost.
// On a single-core CI box macro benchmarks jitter by tens of percent
// run to run; best-of-N keeps the regression gate about the code.
//
// With -compare it becomes the regression gate instead:
//
//	benchjson -compare old.json new.json
//
// exits 1 when any benchmark present in both documents got more than
// -threshold percent slower (ns/op) or allocates more per op than
// before, and 2 on usage or unreadable input. The allocs/op gate is
// zero-tolerance for zero-alloc baselines (the hot-path invariant this
// repo actually defends); for allocation-heavy macro benchmarks, whose
// counts jitter by a few parts per million from runtime internals, an
// increase must exceed 0.1% to fail.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	out := flag.String("o", "", "output file (default BENCH_<YYYYMMDD>.json)")
	compare := flag.Bool("compare", false, "compare two benchmark JSON documents instead of converting")
	threshold := flag.Float64("threshold", 20, "ns/op slowdown (percent) tolerated by -compare")
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold, os.Stdout, os.Stderr))
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("20060102"))
	}
	doc, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), path)
}

// Doc is the exported JSON shape.
type Doc struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one `BenchmarkXxx-N  iters  metrics...` line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Parse reads `go test -bench` output. Repeated samples of one
// benchmark keep only the fastest (lowest ns/op) whole record — see
// the package comment for why min is the right fold.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Benchmarks: []Benchmark{}}
	index := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		b, ok := parseBenchLine(line)
		if !ok {
			parseHeader(doc, line)
			continue
		}
		i, seen := index[b.Name]
		if !seen {
			index[b.Name] = len(doc.Benchmarks)
			doc.Benchmarks = append(doc.Benchmarks, b)
			continue
		}
		if b.Metrics["ns/op"] < doc.Benchmarks[i].Metrics["ns/op"] {
			doc.Benchmarks[i] = b
		}
	}
	return doc, sc.Err()
}

// parseHeader captures the goos/goarch/pkg/cpu preamble.
func parseHeader(doc *Doc, line string) {
	var s string
	if n, _ := fmt.Sscanf(line, "goos: %s", &s); n == 1 {
		doc.Goos = s
	} else if n, _ := fmt.Sscanf(line, "goarch: %s", &s); n == 1 {
		doc.Goarch = s
	} else if n, _ := fmt.Sscanf(line, "pkg: %s", &s); n == 1 {
		doc.Pkg = s
	} else if len(line) > 5 && line[:5] == "cpu: " {
		doc.CPU = line[5:]
	}
}

// Regression is one benchmark that got worse between two documents.
type Regression struct {
	Name   string  // benchmark name
	Metric string  // "ns/op" or "allocs/op"
	Old    float64 // baseline value
	New    float64 // current value
	Pct    float64 // percent change (ns/op only)
}

func (r Regression) String() string {
	if r.Metric == "allocs/op" {
		return fmt.Sprintf("%s: allocs/op %.0f -> %.0f", r.Name, r.Old, r.New)
	}
	return fmt.Sprintf("%s: ns/op %.1f -> %.1f (%+.1f%%)", r.Name, r.Old, r.New, r.Pct)
}

// allocNoisePct is the relative allocs/op increase tolerated on
// benchmarks whose baseline already allocates: macro benchmarks jitter
// by a handful of allocations out of millions (map growth timing,
// runtime internals), and a real regression — one extra allocation per
// frame or per event — clears 0.1% by orders of magnitude. Zero-alloc
// baselines get no tolerance at all.
const allocNoisePct = 0.1

// Compare judges cur against base: benchmarks present in both are
// checked for a >thresholdPct ns/op slowdown and for an allocs/op
// increase (any increase on a zero-alloc baseline, >allocNoisePct
// otherwise). Benchmarks that exist on only one side are reported in
// added/removed but never fail the gate — the suite is allowed to grow.
func Compare(base, cur *Doc, thresholdPct float64) (regs []Regression, added, removed []string) {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
		old, ok := baseBy[b.Name]
		if !ok {
			added = append(added, b.Name)
			continue
		}
		if ons, ok1 := old.Metrics["ns/op"]; ok1 && ons > 0 {
			if nns, ok2 := b.Metrics["ns/op"]; ok2 {
				pct := (nns - ons) / ons * 100
				if pct > thresholdPct {
					regs = append(regs, Regression{Name: b.Name, Metric: "ns/op", Old: ons, New: nns, Pct: pct})
				}
			}
		}
		if oal, ok1 := old.Metrics["allocs/op"]; ok1 {
			if nal, ok2 := b.Metrics["allocs/op"]; ok2 && nal > oal {
				if oal == 0 || (nal-oal)/oal*100 > allocNoisePct {
					regs = append(regs, Regression{Name: b.Name, Metric: "allocs/op", Old: oal, New: nal})
				}
			}
		}
	}
	for _, b := range base.Benchmarks {
		if _, ok := curBy[b.Name]; !ok {
			removed = append(removed, b.Name)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	sort.Strings(added)
	sort.Strings(removed)
	return regs, added, removed
}

// runCompare implements `benchjson -compare old.json new.json` and
// returns the process exit code: 0 clean, 1 regression, 2 usage/IO or
// no benchmark in common with the baseline.
func runCompare(args []string, thresholdPct float64, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "benchjson: usage: benchjson -compare [-threshold pct] old.json new.json")
		return 2
	}
	base, err := readDoc(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	cur, err := readDoc(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	regs, added, removed := Compare(base, cur, thresholdPct)
	for _, name := range added {
		fmt.Fprintf(stdout, "new benchmark: %s\n", name)
	}
	for _, name := range removed {
		fmt.Fprintf(stdout, "missing benchmark: %s (was in baseline)\n", name)
	}
	compared := len(cur.Benchmarks) - len(added)
	if compared == 0 && len(base.Benchmarks) > 0 {
		// Nothing was judged, so "no regressions" would be vacuous. The
		// usual cause is a GOMAXPROCS name suffix (-2) that the baseline
		// host did not add, or vice versa: rerun with a matching -cpu.
		fmt.Fprintln(stderr, "benchjson: no benchmark in common with the baseline (GOMAXPROCS suffix mismatch? rerun with a matching -cpu)")
		return 2
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "benchjson: %d benchmarks compared, no regressions (threshold %.0f%% ns/op, %.1f%% allocs/op)\n",
			compared, thresholdPct, allocNoisePct)
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(stdout, "REGRESSION %s\n", r)
	}
	fmt.Fprintf(stderr, "benchjson: %d regression(s)\n", len(regs))
	return 1
}

// readDoc loads one benchmark JSON document.
func readDoc(path string) (*Doc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc Doc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkFrameCodec-8   1201886   996.5 ns/op   0 B/op   0 allocs/op
//
// Metric values and units come in pairs after the iteration count.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields[0]) <= len("Benchmark") || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	var iters int64
	if _, err := fmt.Sscanf(fields[1], "%d", &iters); err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
