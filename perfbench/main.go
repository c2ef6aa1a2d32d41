// Command perfbench is the repository benchmark. One invocation runs
// one named workload for a fixed host-time budget, checks that the
// program's outputs are correct, and prints its metrics as the last
// line of standard output:
//
//	perfbench --workload ring-be --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 spends half the
// budget untraced and half traced (benchmark spans plus a span-labelled
// CPU profile) and prints the per-layer metrics, including the tracing
// overhead between the two halves. See README.md for the workloads and
// the layer → metric map.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// selfPkgs are the packages whose self time the traced run folds out
// of the workload's main span; setupPkgs those folded out of set-up.
var (
	selfPkgs = []string{
		"sim", "netdev", "ethernet", "tsnswitch", "filter", "meter", "gate",
		"shaper", "buffering", "forward", "tables", "tsnnic", "analyzer",
		"obs", "metrics", "psim", "svc", "core", "itp", "reconfig", "wal",
		"runtime", "syscall",
	}
	setupPkgs = []string{"workload", "core", "itp", "topology", "testbed", "runtime"}
)

// perLayer returns every per-layer metric in print order. A layer the
// workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_frame", "events/frame"},
		{"sim.heap_high_water", "count"},
		{"netdev.tx_frames", "count"},
		{"tsnswitch.rx_frames", "count"},
		{"tsnswitch.drops", "count"},
		{"tsnswitch.queue_high_water", "count"},
		{"tsnnic.tx_frames", "count"},
		{"analyzer.records", "count"},
		{"runtime.allocs_per_frame", "allocs/frame"},
		{"runtime.bytes_per_frame", "B/frame"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.malloc_share", "ratio"},
		{"runtime.sched_share", "ratio"},
		{"psim.window_us", "us"},
		{"psim.windows", "count"},
		{"psim.host_us_per_window", "us"},
		{"setup.workload_s", "s"},
		{"setup.testbed_s", "s"},
	}
	for _, route := range routes {
		defs = append(defs,
			metricDef{route + "_p50_ms", "ms"},
			metricDef{route + "_p99_ms", "ms"},
			metricDef{route + "_samples", "count"},
			metricDef{"svc.handler_ms." + route, "ms"})
	}
	defs = append(defs,
		metricDef{"svc.transport_ms", "ms"},
		metricDef{"svc.cache_hit_ratio", "ratio"},
		metricDef{"svc.admission_high_water", "count"},
		metricDef{"svc.shed", "count"},
		metricDef{"core.derive_ms", "ms"},
		metricDef{"reconfig.commits", "count"},
		metricDef{"reconfig.retries", "count"},
		metricDef{"wal.append_sync_p50_ms", "ms"},
		metricDef{"wal.append_sync_p99_ms", "ms"},
		metricDef{"wal.fsyncs", "count"},
	)
	for _, p := range append(selfPkgs, "other") {
		defs = append(defs, metricDef{p + ".self_share", "ratio"})
	}
	for _, p := range append(setupPkgs, "other") {
		defs = append(defs, metricDef{p + ".setup_share", "ratio"})
	}
	for _, m := range endToEnd[:2] {
		defs = append(defs, metricDef{"trace.overhead." + m.name, "ratio"})
	}
	return defs
}

// tiny shrinks every workload to a smoke-test size and waives the
// checks that need a full-size run (the per-route sample floor, at
// least one acknowledged reconfig). Only the smoke test sets it; the
// command line cannot.
var tiny bool

// bench is one measured phase of a workload: its inputs, its budget,
// the tracer (nil when untraced) and everything it measured.
type bench struct {
	seed   uint64
	budget time.Duration
	outDir string
	tr     *tracer
	log    io.Writer

	e2e       map[string]float64
	layer     map[string]float64
	attempted uint64
	failed    uint64
	problems  []string
}

// check records a failed correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one named workload: run measures it; fold turns the
// traced phase's CPU samples into per-layer shares.
type workloadDef struct {
	run  func(b *bench) error
	fold func(b *bench, samples []sample)
}

var workloads = map[string]workloadDef{
	"ring-be": {run: runRingBE, fold: foldBatch},
	"mesh-p2": {run: runMeshP2, fold: foldBatch},
	"svc-mix": {run: runSvcMix, fold: foldSvc},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: ring-be, mesh-p2 or svc-mix")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 20, "host seconds to measure")
	traceOn := fl.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	outDir := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for state dirs, spans and profiles")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ring-be|mesh-p2|svc-mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	phase := func(budget time.Duration, tr *tracer) *bench {
		return &bench{seed: *seed, budget: budget, outDir: *outDir, tr: tr, log: stdout,
			e2e: map[string]float64{}, layer: map[string]float64{}}
	}
	env := envStamp(*outDir, *name, *seed)

	var phases []*bench
	var metrics map[string]metricValue
	if *traceOn == 0 {
		b := phase(budget, nil)
		if err := w.run(b); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		b.e2e["peak_rss_mb"] = peakRSSMB()
		phases = []*bench{b}
		metrics = pick(endToEnd, b.e2e)
	} else {
		plain := phase(budget/2, nil)
		if err := w.run(plain); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		tr, err := startTracer()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		traced := phase(budget/2, tr)
		err = w.run(traced)
		tr.stop()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		samples, err := tr.samples()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		w.fold(traced, samples)
		// Client-side measurements the untraced half also took are
		// reported from it, free of tracing overhead.
		for k, v := range plain.layer {
			traced.layer[k] = v
		}
		traced.layer["trace.overhead.ops_per_s"] = overhead(plain.e2e["ops_per_s"], traced.e2e["ops_per_s"])
		traced.layer["trace.overhead.setup_s"] = -overhead(plain.e2e["setup_s"], traced.e2e["setup_s"])
		base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d", *name, *seed))
		if err := tr.writeSpans(base+".spans.json", env); err != nil {
			fmt.Fprintf(stderr, "perfbench: spans: %v\n", err)
			return 1
		}
		if err := os.WriteFile(base+".cpu.pprof", tr.prof.Bytes(), 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: profile: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: spans %s.spans.json, profile %s.cpu.pprof\n", base, base)
		phases = []*bench{plain, traced}
		metrics = pick(perLayer(), traced.layer)
	}

	res := result{Correct: true, Metrics: metrics}
	for _, b := range phases {
		res.Attempted += b.attempted
		res.Failed += b.failed
		for _, p := range b.problems {
			res.Correct = false
			fmt.Fprintf(stdout, "check failed: %s\n", p)
		}
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env: %s\n", envJSON)
	out, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// pick returns one value per definition; a metric the workload did not
// measure reads 0.
func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// overhead is the share of the untraced value a metric lost when
// traced, (plain-traced)/plain; negate it for a lower-is-better metric.
func overhead(plain, traced float64) float64 {
	if plain == 0 {
		return 0
	}
	return (plain - traced) / plain
}

// median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(float64(len(xs))*q+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// envStamp describes where a result was measured: toolchain, CPUs,
// the state directory's filesystem, the seed and the source revision.
func envStamp(stateDir, name string, seed uint64) map[string]string {
	return map[string]string{
		"workload":      name,
		"seed":          strconv.FormatUint(seed, 10),
		"go":            runtime.Version(),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"cpu":           cpuModel(),
		"state_fs":      fsType(stateDir),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x9123683E: "btrfs", 0x6969: "nfs",
		0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit resolves HEAD from a .git directory in the working
// directory without running git; a plain source tree has none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot directories), identifying the revision measured even where no
// git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
