package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/psim"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that the correctness checks pass, that every metric
// BENCHMARK.json names is emitted with its unit, and that the traced
// self-time shares sum to 1.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	tiny = true
	defer func() { tiny = false }()
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bm.Workloads), len(workloads))
	}
	for _, wl := range bm.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{bm.EndToEnd, bm.PerLayer} {
			t.Run(wl.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", wl.Name, "--seed", "3", "--seconds", "0.2",
					"--trace", strconv.Itoa(trace), "--out", t.TempDir()}, &out, io.Discard)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, correct %v, failed %d of %d\n%s", code, res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %v with unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
				if trace == 1 {
					for _, suffix := range []string{".self_share", ".setup_share"} {
						var sum float64
						for name, m := range res.Metrics {
							if strings.HasSuffix(name, suffix) {
								sum += m.Value
							}
						}
						// No samples in a span at this size leaves every
						// share 0; otherwise they sum to 1.
						if sum != 0 && math.Abs(sum-1) > 1e-9 {
							t.Errorf("%s shares sum to %v", suffix, sum)
						}
					}
				}
			})
		}
	}
}

// opLog records, in order, each message posted ('p') and each one the
// receiving partition drained ('d'). Posts happen in run phases and
// drains in drain phases, which the runner's barriers separate, so the
// two partitions' goroutines never append at once.
type opLog struct{ ops []byte }

func (l *opLog) ScheduleRemoteDelivery(*ethernet.Frame, sim.Time, sim.Time) {
	l.ops = append(l.ops, 'd')
}

// TestPsimWindowRules checks the two rules psim.windows is computed
// from against real runs: runEnd against the instant a serial
// Net.Run stops at, and psimWindows against the windows a psim.Runner
// steps through.
func TestPsimWindowRules(t *testing.T) {
	w, err := workload.Build(workload.Params{Topology: "mesh", Switches: 9, TSFlows: 32, Hops: 3,
		WireSize: 64, SlotUs: 65, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net, err := testbed.Build(testbed.Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start, simDur := net.Engine.Now(), 2*sim.Millisecond
	net.Run(0, simDur)
	if got, want := net.Engine.Now(), runEnd(start, simDur, w.Design.Config.SlotSize); got != want {
		t.Errorf("Net.Run stopped at %v, runEnd gives %v", got, want)
	}

	// A message posted in one window is drained when the next one
	// starts (or after the last), so every post-then-drain boundary in
	// the log closes one window. A post at every instant leaves no
	// window without one.
	for _, c := range []struct{ end, win sim.Time }{{0, 3}, {2, 3}, {9, 3}, {10, 3}, {100, 7}} {
		a, b := sim.NewEngine(), sim.NewEngine()
		pa, pb := psim.NewPartition(a), psim.NewPartition(b)
		box := psim.NewMailbox(4)
		pb.AddInbox(box)
		log := &opLog{}
		for at := sim.Time(0); at <= c.end; at++ {
			a.At(at, "post", func(*sim.Engine) {
				log.ops = append(log.ops, 'p')
				box.Post(psim.Message{To: log})
			})
		}
		psim.NewRunner([]*psim.Partition{pa, pb}, c.win).RunUntil(c.end)
		if got, want := strings.Count(string(log.ops), "pd"), psimWindows(0, c.end, c.win); got != want {
			t.Errorf("RunUntil(%v) with window %v stepped %d windows, psimWindows gives %d", c.end, c.win, got, want)
		}
	}
}

// TestPkgOf pins the package attribution of profiled function names.
func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/tsnbuilder/tsnbuilder/internal/sim.(*Engine).step": "sim",
		"github.com/tsnbuilder/tsnbuilder/testbed.Build":               "testbed",
		"github.com/tsnbuilder/tsnbuilder/internal/itp.Compute.func2":  "itp",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2": "runtime",
		"aeshashbody":                             "runtime",
		"internal/runtime/syscall.Syscall6":       "syscall",
		"container/heap.Pop":                      "",
		"net/http.(*conn).serve":                  "",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
