package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/wal"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// routes are the svc-mix request kinds, in report order.
var routes = [...]string{"derive_hit", "derive_miss", "reconfig"}

// The request kinds. The mix is a synthetic, fixed choice: each
// request is one of the three with equal odds, the split that gives
// every route the most samples for a given request count.
const (
	kindHit = iota
	kindMiss
	kindReconfig
)

const (
	svcClients = 2 // closed-loop clients, one connection each
	hotSpecs   = 8 // derive hot set; far below the default cache size
	// minSamples per route gives p99 ten samples beyond it.
	minSamples = 1000
	// The load is a fixed request count, not a fixed time: every
	// acknowledged reconfig grows the journal the service checkpoints,
	// so a time-bounded run on a faster host would do more, and
	// costlier, work. The count is reqPerSecond per second of budget
	// (at least enough for minSamples per route).
	reqPerSecond = 1000
	// svcSetups is how many fresh services setup_s is the median of.
	svcSetups = 200
	// rateWindows is how many equal windows of the load phase the
	// request rate is taken over.
	rateWindows = 10
)

// svcRun is one started service: the control plane, the benchmark's
// HTTP server over its handler, and the state directory it journals to.
type svcRun struct {
	svc      *svc.Service
	srv      *http.Server
	served   chan error
	url      string
	dir      string
	handlers *handlerLog
}

// handlerLog times every request inside the service's handler (traced
// phase only), keyed by the benchmark's request ID.
type handlerLog struct {
	mu     sync.Mutex
	byReq  map[string]time.Duration
	byKind map[string][]float64
}

// timed wraps the service handler: it labels the request's CPU samples
// with its kind and records how long the handler ran.
func (h *handlerLog) timed(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, id := r.Header.Get("X-Bench-Kind"), r.Header.Get("X-Bench-Req")
		sp := tr.beginRequest("svc."+kind, id)
		t0 := time.Now()
		tr.do(r.Context(), "svc."+kind, func(ctx context.Context) { next.ServeHTTP(w, r.WithContext(ctx)) })
		d := time.Since(t0)
		tr.end(sp, nil)
		h.mu.Lock()
		h.byReq[id] = d
		h.byKind[kind] = append(h.byKind[kind], ms(d))
		h.mu.Unlock()
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// startService builds a service with a fresh state directory, serves it
// on loopback and returns once /readyz answers 200, with the time from
// svc.NewService to that answer. label is the profiler span the
// service's goroutines inherit.
func startService(b *bench, label string) (*svcRun, time.Duration, error) {
	dir, err := os.MkdirTemp(b.outDir, "svc-state-")
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	r := &svcRun{url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	wl := svc.DefaultWorkload()
	wl.Seed = b.seed
	t0 := time.Now()
	b.tr.do(context.Background(), label, func(context.Context) {
		r.svc, err = svc.NewService(svc.Options{Workload: wl, StateDir: dir})
	})
	if err != nil {
		ln.Close()
		os.RemoveAll(dir)
		return nil, 0, err
	}
	var h http.Handler = r.svc.Handler()
	if b.tr != nil {
		r.handlers = &handlerLog{byReq: map[string]time.Duration{}, byKind: map[string][]float64{}}
		h = r.handlers.timed(b.tr, h)
	}
	r.srv = &http.Server{Handler: h}
	b.tr.do(context.Background(), "svc.http", func(context.Context) {
		go func() { r.served <- r.srv.Serve(ln) }()
	})
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(r.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			r.close()
			return nil, 0, fmt.Errorf("service not ready after 30s (last error %v)", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return r, time.Since(t0), nil
}

// close drains the HTTP server, then the service (which checkpoints
// and syncs its WAL), waits for the serve goroutine and removes the
// state directory.
func (r *svcRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx)
	<-r.served
	_ = r.svc.Shutdown(ctx)
	_ = os.RemoveAll(r.dir)
}

// deriveSpec is the derive request of the tsnserve quickstart in the
// repository README (the paper's 6-switch ring demo) with the given
// seed. Hits and misses both ask for it and differ only in seed, so
// the gap between their latencies is the derivation itself, not a
// difference in spec size or reply length.
func deriveSpec(seed uint64) svc.Spec {
	return svc.Spec{Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3, WireSize: 128, SlotUs: 65, Seed: seed}
}

// hotSet returns the derive specs requested repeatedly (cache hits):
// seeds 1..hotSpecs above the workload seed's base.
func hotSet(seed uint64) []svc.Spec {
	out := make([]svc.Spec, hotSpecs)
	for i := range out {
		out[i] = deriveSpec(seed<<32 + uint64(i) + 1)
	}
	return out
}

// missGen hands out derive specs that never repeat: each carries a
// seed above the hot set's, used once, so its hash (the cache key) is
// new.
type missGen struct {
	mu   sync.Mutex
	next uint64
}

func newMissGen(seed uint64) *missGen { return &missGen{next: seed<<32 + hotSpecs} }

func (g *missGen) spec() svc.Spec {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	return deriveSpec(g.next)
}

// response is one finished request as the client saw it.
type response struct {
	code  int
	cache string
	body  []byte
}

// post sends one request and reads the whole reply.
func post(hc *http.Client, url string, body []byte, kind, id string) (response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Kind", kind)
	req.Header.Set("X-Bench-Req", id)
	resp, err := hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	return response{code: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	lat       [len(routes)][]float64
	doneAt    []time.Duration // completion of each 2xx, from the load start
	clientMs  map[string]float64
	ok, fails uint64
	acks      []svc.ReconfigResponse
	problems  []string
	firstErr  string
}

// runSvcMix serves svc.NewService on loopback with a disk state
// directory and drives it with two closed-loop clients sending a
// seeded mix of cached derives, uncached derives and reconfigurations
// that toggle the meter table size (journal + WAL append and fsync).
func runSvcMix(b *bench) error {
	setups := svcSetups
	if tiny {
		setups = 2
	}
	// Throwaway services measure set-up only; the last one serves the
	// load, and its goroutines carry their own profiler label.
	var setupTimes []float64
	var live *svcRun
	setupStart := time.Now()
	for i := 0; i < setups; i++ {
		label := "setup"
		if i == setups-1 {
			label = "svc.instance"
		}
		runtime.GC() // as between batch iterations: no set-up pays for earlier garbage
		sp := b.tr.begin(0, "svc.setup")
		r, d, err := startService(b, label)
		b.tr.end(sp, nil)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			r.close()
		} else {
			live = r
		}
	}
	defer live.close()
	fmt.Fprintf(b.log, "svc: %d set-ups in %.2fs\n", setups, time.Since(setupStart).Seconds())
	b.e2e["setup_s"] = median(setupTimes)

	ctl := &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second}
	defer ctl.CloseIdleConnections()
	var cfg svc.ConfigJSON
	if err := getJSON(ctl, live.url+"/v1/config", &cfg); err != nil {
		return err
	}
	hot := hotSet(b.seed)
	warm := make([][]byte, len(hot))
	for i, s := range hot {
		body, _ := json.Marshal(s)
		resp, err := post(ctl, live.url+"/v1/derive", body, "warm", "warm-"+strconv.Itoa(i))
		if err != nil {
			return fmt.Errorf("warming hot spec %d: %w", i, err)
		}
		b.check(resp.code == http.StatusOK && resp.cache == "miss",
			"warming hot spec %d: status %d, X-Cache %q", i, resp.code, resp.cache)
		warm[i] = resp.body
	}

	misses := newMissGen(b.seed)
	toggle := [2]int{cfg.MeterSize, 2 * cfg.MeterSize}
	perClient := max(int(reqPerSecond*b.budget.Seconds()), 4*minSamples) / svcClients
	if tiny {
		perClient = 20
	}
	logs := make([]*clientLog, svcClients)
	runtime.GC()
	r0 := readRuntime()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &clientLog{clientMs: map[string]float64{}}
		wg.Add(1)
		b.tr.do(context.Background(), "client", func(context.Context) {
			go func(c int, log *clientLog) {
				defer wg.Done()
				runClient(b, c, live.url, t0, perClient, hot, warm, misses, toggle, log)
			}(c, logs[c])
		})
	}
	wg.Wait()
	loadSecs := time.Since(t0).Seconds()
	r1 := readRuntime()

	var lat [len(routes)][]float64
	var acks []svc.ReconfigResponse
	var ok uint64
	var perWindow [rateWindows]float64
	clientMs := map[string]float64{}
	for _, l := range logs {
		ok += l.ok
		b.attempted += l.ok + l.fails
		b.failed += l.fails
		b.problems = append(b.problems, l.problems...)
		if l.firstErr != "" {
			fmt.Fprintf(b.log, "svc: client error: %s\n", l.firstErr)
		}
		for k := range routes {
			lat[k] = append(lat[k], l.lat[k]...)
		}
		acks = append(acks, l.acks...)
		for _, at := range l.doneAt {
			perWindow[min(int(at.Seconds()/loadSecs*rateWindows), rateWindows-1)]++
		}
		for id, v := range l.clientMs {
			clientMs[id] = v
		}
	}
	// The median rate over equal windows of the load phase: a short
	// stall of the shared disk moves one window, not the result.
	for i := range perWindow {
		perWindow[i] /= loadSecs / rateWindows
	}
	b.e2e["ops_per_s"] = median(perWindow[:])
	checkJournal(b, ctl, live.url, acks)
	// Each route's share of the clients' waiting time: where the load
	// phase spends its time.
	var waited [len(routes)]float64
	var total float64
	for k := range routes {
		for _, v := range lat[k] {
			waited[k] += v
		}
		total += waited[k]
	}
	fmt.Fprintf(b.log, "svc: %d requests in %.2fs (%.0f/s)", ok, loadSecs, float64(ok)/loadSecs)
	for k, route := range routes {
		fmt.Fprintf(b.log, ", %s=%d (%.0f%% of client time)", route, len(lat[k]), 100*waited[k]/total)
	}
	fmt.Fprintf(b.log, "; %d acked reconfigs gapless\n", len(acks))
	for k, route := range routes {
		b.check(tiny || len(lat[k]) >= minSamples,
			"%s: %d samples, fewer than the %d a p99 with ten samples beyond it needs", route, len(lat[k]), minSamples)
	}
	l := b.layer
	for k, route := range routes {
		l[route+"_samples"] = float64(len(lat[k]))
		l[route+"_p50_ms"] = quantile(lat[k], 0.50)
		l[route+"_p99_ms"] = quantile(lat[k], 0.99)
	}
	if b.tr == nil {
		return nil
	}
	// A handler may still be recording the last reply a client read.
	live.handlers.mu.Lock()
	for _, route := range routes {
		l["svc.handler_ms."+route] = median(live.handlers.byKind[route])
	}
	var transport []float64
	for id, c := range clientMs {
		if h, ok := live.handlers.byReq[id]; ok {
			transport = append(transport, c-ms(h))
		}
	}
	live.handlers.mu.Unlock()
	l["svc.transport_ms"] = median(transport)
	cache := live.svc.Cache()
	if n := cache.Hits.Value() + cache.Misses.Value(); n > 0 {
		l["svc.cache_hit_ratio"] = float64(cache.Hits.Value()) / float64(n)
	}
	adm := live.svc.Admission()
	l["svc.admission_high_water"] = float64(max(adm.Derive.DepthHW.Value(), adm.Reconfig.DepthHW.Value()))
	var shed uint64
	for _, q := range []*svc.ClassQueue{adm.Derive, adm.Reconfig} {
		shed += q.ShedFull.Value() + q.ShedPressure.Value() + q.ShedDeadline.Value()
	}
	l["svc.shed"] = float64(shed)
	snap := live.svc.Instance().MetricsSnapshot()
	l["reconfig.commits"] = snapshotValue(snap, reconfig.MetricTxns, "outcome", "committed")
	l["reconfig.retries"] = snapshotValue(snap, reconfig.MetricRetries, "", "")
	if busy := (r1.totalCPU - r0.totalCPU) - (r1.idleCPU - r0.idleCPU); busy > 0 {
		l["runtime.gc_cpu_share"] = (r1.gcCPU - r0.gcCPU) / busy
	}
	l["core.derive_ms"] = deriveProbe(b, misses)
	return walProbe(b, cfg)
}

// runClient is one closed-loop client: it sends its next request only
// once the previous reply has been read in full.
func runClient(b *bench, c int, url string, t0 time.Time, requests int, hot []svc.Spec, warm [][]byte,
	misses *missGen, toggle [2]int, log *clientLog) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	rng := sim.NewRand(b.seed*1_000_003 + uint64(c))
	side := c % 2
	for n := 0; n < requests; n++ {
		kind := rng.Intn(len(routes))
		var path string
		var body []byte
		hotIdx := -1
		switch kind {
		case kindHit:
			hotIdx = rng.Intn(len(hot))
			path, body = "/v1/derive", mustJSON(hot[hotIdx])
		case kindMiss:
			path, body = "/v1/derive", mustJSON(misses.spec())
		case kindReconfig:
			side ^= 1
			path, body = "/v1/reconfig", mustJSON(svc.ReconfigRequest{MeterSize: toggle[side]})
		}
		id := fmt.Sprintf("%d-%d", c, n)
		sp := b.tr.beginRequest("client."+routes[kind], id)
		sent := time.Now()
		resp, err := post(hc, url+path, body, routes[kind], id)
		d := time.Since(sent)
		b.tr.end(sp, nil)
		if err != nil || resp.code/100 != 2 {
			log.fails++
			if log.firstErr == "" {
				log.firstErr = fmt.Sprintf("%s: status %d err %v body %s", routes[kind], resp.code, err, resp.body)
			}
			continue
		}
		log.ok++
		log.doneAt = append(log.doneAt, time.Since(t0))
		log.lat[kind] = append(log.lat[kind], ms(d))
		if b.tr != nil {
			log.clientMs[id] = ms(d)
		}
		switch kind {
		case kindHit:
			if resp.cache != "hit" || !bytes.Equal(resp.body, warm[hotIdx]) {
				log.problems = append(log.problems, fmt.Sprintf(
					"hot spec %d: X-Cache %q, body equal to its miss body: %v", hotIdx, resp.cache, bytes.Equal(resp.body, warm[hotIdx])))
			}
		case kindMiss:
			if resp.cache != "miss" {
				log.problems = append(log.problems, fmt.Sprintf("never-repeated spec answered X-Cache %q", resp.cache))
			}
		case kindReconfig:
			var ack svc.ReconfigResponse
			if err := json.Unmarshal(resp.body, &ack); err != nil || ack.Config.MeterSize != toggle[side] {
				log.problems = append(log.problems, fmt.Sprintf("reconfig ack %s does not carry meter_size %d", resp.body, toggle[side]))
			}
			log.acks = append(log.acks, ack)
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// checkJournal checks that the acknowledged reconfiguration seqs are
// gapless from 1 and that the configuration in force is the last
// acknowledged one.
func checkJournal(b *bench, hc *http.Client, url string, acks []svc.ReconfigResponse) {
	sort.Slice(acks, func(i, j int) bool { return acks[i].Seq < acks[j].Seq })
	for i, a := range acks {
		if a.Seq != uint64(i+1) {
			b.check(false, "acknowledged reconfig seqs not gapless: position %d holds seq %d", i, a.Seq)
			return
		}
	}
	if len(acks) == 0 {
		b.check(tiny, "no reconfiguration was acknowledged")
		return
	}
	var live svc.ConfigJSON
	if err := getJSON(hc, url+"/v1/config", &live); err != nil {
		b.check(false, "reading /v1/config: %v", err)
		return
	}
	last := acks[len(acks)-1]
	b.check(live == last.Config, "/v1/config %+v != last acknowledged (seq %d) %+v", live, last.Seq, last.Config)
}

// snapshotValue reads one counter from a registry snapshot; an empty
// key matches the family's only sample.
func snapshotValue(snap metrics.Snapshot, family, key, value string) float64 {
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if key == "" {
				return s.Value
			}
			for _, l := range s.Labels {
				if l.Key == key && l.Value == value {
					return s.Value
				}
			}
		}
	}
	return 0
}

// deriveProbe times workload.Build directly on fresh miss specs: the
// derivation cost with the service around it removed.
func deriveProbe(b *bench, misses *missGen) float64 {
	n := 40
	if tiny {
		n = 3
	}
	var times []float64
	for i := 0; i < n; i++ {
		s := misses.spec()
		if err := s.Normalize(); err != nil {
			b.check(false, "miss spec: %v", err)
			return 0
		}
		sp := b.tr.begin(0, "workload.Build")
		t0 := time.Now()
		_, err := workload.Build(s.Params())
		times = append(times, ms(time.Since(t0)))
		b.tr.end(sp, nil)
		if err != nil {
			b.check(false, "derive probe: %v", err)
			return 0
		}
	}
	return median(times)
}

// walProbe opens a wal.Store on the state directory's filesystem and
// times append+sync of records the size of a reconfiguration commit
// record.
func walProbe(b *bench, cfg svc.ConfigJSON) error {
	dir, err := os.MkdirTemp(b.outDir, "wal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := wal.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer st.Close()
	payload := mustJSON(struct {
		T      string         `json:"t"`
		Txn    uint64         `json:"txn"`
		Seq    uint64         `json:"seq"`
		Config svc.ConfigJSON `json:"config"`
	}{"commit", 1 << 20, 1 << 20, cfg})
	n := minSamples
	if tiny {
		n = 20
	}
	times := make([]float64, 0, n)
	sp := b.tr.begin(0, "wal.probe")
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := st.Append(payload); err != nil {
			return err
		}
		if err := st.Sync(); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
	}
	b.tr.end(sp, map[string]float64{"fsyncs": float64(n), "record_bytes": float64(len(payload))})
	b.layer["wal.append_sync_p50_ms"] = quantile(times, 0.50)
	b.layer["wal.append_sync_p99_ms"] = quantile(times, 0.99)
	b.layer["wal.fsyncs"] = float64(n)
	return nil
}

// foldSvc folds the traced phase's profile: self shares over the
// service's goroutines (HTTP, handlers by kind, the instance loop),
// set-up shares over the throwaway service builds.
func foldSvc(b *bench, samples []sample) {
	main := map[string]bool{"svc.http": true, "svc.instance": true}
	for _, r := range routes {
		main["svc."+r] = true
	}
	foldShares(b, samples, main)
	b.layer["runtime.malloc_share"] = stackShare(samples, main, "runtime.mallocgc")
	b.layer["runtime.sched_share"] = stackShare(samples, main, schedFuncs...)
}
