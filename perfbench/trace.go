package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into each
// layer and a CPU profile whose samples carry the label of the span
// that encloses them. A nil *tracer is the untraced mode: every method
// is a no-op and do runs its function unlabelled.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	prof  bytes.Buffer
}

// span is one timed call into a layer. Parent is the enclosing span's
// ID (0 for a root); spans of one iteration share a root, and the
// client's and the handler's span of one request share Req.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	Req     string             `json:"req,omitempty"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// startTracer begins the CPU profile; stop ends it.
func startTracer() (*tracer, error) {
	t := &tracer{t0: time.Now()}
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return t, nil
}

func (t *tracer) stop() {
	if t != nil {
		pprof.StopCPUProfile()
	}
}

// begin opens a span under parent and returns its ID; end closes it.
func (t *tracer) begin(parent int, name string) int { return t.open(parent, name, "") }

// beginRequest opens the root span of one side of request req.
func (t *tracer) beginRequest(name, req string) int { return t.open(0, name, req) }

func (t *tracer) open(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, StartNs: now})
	return len(t.spans)
}

// end closes span id, attaching the counts measured inside it.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Counts = counts
}

// do runs fn with the profiler label span=name, so CPU samples taken
// inside fn (and in goroutines fn starts) fold into that span.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context)) {
	if t == nil {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("span", name), fn)
}

// writeSpans writes the recorded spans and the environment stamp as one
// JSON document.
func (t *tracer) writeSpans(path string, env map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Env   map[string]string `json:"env"`
		Spans []span            `json:"spans"`
	}{env, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sample is one CPU profile sample: its weight, its span label and its
// stack as function names, leaf first.
type sample struct {
	weight int64
	span   string
	stack  []string
}

// modulePrefix is the import-path prefix of this repository's packages.
const modulePrefix = "github.com/tsnbuilder/tsnbuilder/"

// pkgOf maps a profiled function to the repository package that owns
// it ("sim", "tsnswitch", "testbed", ...), "runtime" for the Go
// runtime, "syscall" for system calls, and "" for anything else.
func pkgOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, "."):
		// Names without a package are the runtime's assembly routines
		// (memmove, aeshashbody, ...).
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexByte(rest, '.'); i > 0 && !strings.Contains(rest[:i], "/") {
		return rest[:i]
	}
	return ""
}

// selfShares folds the samples whose span label is in spans into the
// share of self time (leaf frame) per package in pkgs; everything else
// lands in "other", so the shares sum to 1 (all 0 with no samples).
func selfShares(samples []sample, spans map[string]bool, pkgs []string) map[string]float64 {
	want := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		want[p] = true
	}
	out := make(map[string]float64, len(pkgs)+1)
	for _, p := range pkgs {
		out[p] = 0
	}
	out["other"] = 0
	var total int64
	for _, s := range samples {
		if !spans[s.span] || len(s.stack) == 0 {
			continue
		}
		total += s.weight
		if p := pkgOf(s.stack[0]); want[p] {
			out[p] += float64(s.weight)
		} else {
			out["other"] += float64(s.weight)
		}
	}
	if total > 0 {
		for k := range out {
			out[k] /= float64(total)
		}
	}
	return out
}

// stackShare is the share of the weight in spans whose stack contains
// any of the named functions.
func stackShare(samples []sample, spans map[string]bool, fns ...string) float64 {
	var hit, total int64
	for _, s := range samples {
		if !spans[s.span] {
			continue
		}
		total += s.weight
	stack:
		for _, f := range s.stack {
			for _, want := range fns {
				if f == want {
					hit += s.weight
					break stack
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// samples decodes the finished CPU profile.
func (t *tracer) samples() ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(t.prof.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return parseProfile(raw)
}

// parseProfile decodes the subset of the pprof protobuf format
// (profile.proto) that self-time folding needs: samples with their
// location IDs, values and string labels; locations with their line
// entries; functions with their names; and the string table.
func parseProfile(raw []byte) ([]sample, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		rawSamples []rawSample
		locFuncs   = map[uint64][]uint64{} // location → function IDs, innermost first
		funcNames  = map[uint64]int64{}    // function → name string index
		strs       []string
	)
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			if err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]sample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		s := sample{weight: 1}
		// CPU profiles carry [samples/count, cpu/nanoseconds]; weigh by
		// CPU time when present.
		if n := len(rs.values); n > 0 {
			s.weight = rs.values[n-1]
		}
		for _, l := range rs.labels {
			if str(l[0]) == "span" {
				s.span = str(l[1])
			}
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field that arrives either as
// one varint (v, data nil) or packed (data).
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
