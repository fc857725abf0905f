// Command perfbench is the repository's benchmark: one process that
// builds the secure-redirector stack (or the Rabbit simulator) from the
// layers' public constructors, drives it with load generated from a
// seed, checks every output, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same load untraced and then traced, and reports the
// per-layer metrics. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
)

// metricDef names one reported metric and its unit; the two lists are
// the metrics BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"goodput_mb_per_s", "MB/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"gen.req_p99_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.connect_p50_ms", "ms"},
	{"gen.connect_p99_ms", "ms"},
	{"netsim.frames_per_req", "count"},
	{"netsim.frames_dropped", "count"},
	{"tcpip.connect_p50_us", "us"},
	{"tcpip.connect_p99_us", "us"},
	{"tcpip.segs_per_req", "count"},
	{"tcpip.retransmits", "count"},
	{"tcpip.backend_echo_p50_us", "us"},
	{"issl.handshake_full_p50_us", "us"},
	{"issl.handshake_resumed_p50_us", "us"},
	{"issl.resume_ok_ratio", "ratio"},
	{"issl.resume_offers", "count"},
	{"issl.handshakes_failed", "count"},
	{"issl.write_p50_us", "us"},
	{"issl.read_p50_us", "us"},
	{"issl.records_per_req", "count"},
	{"issl.signpool_wait_ratio", "ratio"},
	{"ladder.pipe_us", "us"},
	{"ladder.tcpip_us", "us"},
	{"ladder.redirector_us", "us"},
	{"ladder.cluster_us", "us"},
	{"redirector.hop_us", "us"},
	{"cluster.hop_us", "us"},
	{"redirector.refused", "count"},
	{"cluster.failovers", "count"},
	{"crypto.rsa_decrypt_us", "us"},
	{"crypto.aes_cbc_us_16k", "us"},
	{"crypto.hmac_sha1_us_16k", "us"},
	{"go.alloc_bytes_per_req", "B"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.cpu_util", "ratio"},
	{"rabbit.host_ns_per_sim_cycle", "ns"},
	{"rabbit.sim_mcycles_per_s", "Mcycles/s"},
	{"dcc.sim_cycles_per_block", "count"},
	{"dcc.allopt_sim_cycles_per_block", "count"},
	{"aesasm.sim_cycles_per_block", "count"},
	{"dcc.compile_ms", "ms"},
	{"rasm.assemble_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// servingWorkloads are the workloads that drive the serving stack.
var servingWorkloads = map[string]servingShape{
	"resume_churn":    {keyBits: 512},
	"fresh_handshake": {keyBits: 1024, signWorkers: slots()},
	"bulk_cluster":    {keyBits: 512, cluster: true},
}

// freshRate is fresh_handshake's fixed offered load: about a fifth of
// the closed-loop capacity of this workload on a 2-CPU host when the
// host runs fast (about 2000 req/s), and under half when it runs slow.
// Near saturation the queueing delay magnifies every change in host
// speed: at 1000 req/s, req_p50_ms read 1.5 ms on a fast host and
// 5.4 ms on the same host slowed by its neighbours.
const freshRate = 400.0

// setup_s is the median of setupBatches batch means: each batch
// repeats the set-up until its set-ups have taken setupBatch, and
// averages their times. On the 2-CPU development host the host's speed
// swings by up to 2x over periods of about 100 ms, so a single set-up
// of a few ms takes one of two times, and a median of single set-ups
// jumped between them from run to run; a batch mean spans the swings.
const (
	setupBatches = 5
	setupBatch   = 100 * time.Millisecond
)

// traceDir is where a traced run writes its spans, under the build
// directory that run.sh makes in the checkout.
const traceDir = ".bench_build/perfbench/trace"

type runConfig struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	setupBatch time.Duration // timed set-up per batch; 0 makes one set-up a batch
	traceDir   string        // where spans are written
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "resume_churn, fresh_handshake, bulk_cluster or rabbit_aes")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	flag.Parse()
	res, err := run(runConfig{
		workload:   *workload,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		setupBatch: setupBatch,
		traceDir:   traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// phases is the time split of one run.
func phases(seconds float64) (warm, window time.Duration) {
	window = time.Duration(seconds * float64(time.Second))
	warm = window / 5
	if warm > time.Second {
		warm = time.Second
	}
	return warm, window
}

func run(cfg runConfig) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("need --seconds > 0")
	}
	if shape, ok := servingWorkloads[cfg.workload]; ok {
		return runServing(cfg, shape)
	}
	if cfg.workload == "rabbit_aes" {
		return runRabbit(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// measured is what a run hands to the metric computations.
type measured struct {
	setups   []float64 // ns per set-up
	main     phaseStats
	traced   phaseStats
	rt0, rt1 runtimeSample // around main, in a traced run
	spans    spanStats
	counters map[string]float64 // deltas over the traced phase
	kernels  kernelCosts
	ladder   []float64
	rabbit   *rabbitRunner
	open     bool // the load is an open loop at a fixed rate
}

func runServing(cfg runConfig, shape servingShape) (*result, error) {
	var w *world
	setups, err := timeSetups(cfg.setupBatch, func() {
		if w != nil {
			w.close()
			w = nil // let the collector have it during the next set-up
		}
	}, func() (err error) {
		w, err = buildWorld(cfg.seed, shape)
		return err
	})
	if err != nil {
		return nil, err
	}
	r := newServingRunner(cfg.workload, cfg.seed, w)
	defer r.close()
	drive := func(d time.Duration, col *Collector) phaseStats { return runClosed(d, slots(), col, r.request) }
	if cfg.workload == "fresh_handshake" {
		sched := newArrivals(cfg.seed, freshRate)
		drive = func(d time.Duration, col *Collector) phaseStats { return runOpen(d, sched, col, r.request) }
	}
	m := &measured{setups: setups, open: cfg.workload == "fresh_handshake"}
	var all phaseStats
	var before map[string]uint64
	col := runPhases(cfg, m, &all, drive, func(col *Collector) {
		w.backend.col.Store(col)
		if col != nil {
			before = w.counters()
			return
		}
		m.counters = map[string]float64{}
		for k, v := range w.counters() {
			m.counters[k] = float64(v - before[k])
		}
	})
	if !cfg.trace {
		return finish(cfg, &all, endToEnd(m))
	}
	if m.kernels, err = calibrate(w.key, cfg.seed); err != nil {
		all.fail(err)
	}
	if shape.cluster {
		if m.ladder, err = runLadder(w, cfg.seed); err != nil {
			all.fail(err)
		}
	}
	return finishTraced(cfg, &all, m, col)
}

func runRabbit(cfg runConfig) (*result, error) {
	var r *rabbitRunner
	var compile, asm []float64
	setups, err := timeSetups(cfg.setupBatch, func() { r = nil }, func() (err error) {
		if r, err = newRabbitRunner(cfg.seed); err == nil {
			compile = append(compile, r.compile...)
			asm = append(asm, r.asm...)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r.compile, r.asm = compile, asm
	m := &measured{setups: setups, rabbit: r}
	all := phaseStats{attempted: int64(len(r.perBlock))}
	for _, err := range r.checkExperiments() {
		all.fail(err)
	}
	drive := func(d time.Duration, col *Collector) phaseStats { return runClosed(d, rabbitSlots, col, r.request) }
	col := runPhases(cfg, m, &all, drive, func(*Collector) {})
	if !cfg.trace {
		return finish(cfg, &all, endToEnd(m))
	}
	// The workload has no RSA; calibrate the serving kernels at the
	// smallest serving key size so every run reports them.
	key, err := rsa.GenerateKey(prng.NewXorshift(subSeed(cfg.seed, "calibration-key")), 512)
	if err == nil {
		m.kernels, err = calibrate(key, cfg.seed)
	}
	if err != nil {
		all.fail(err)
	}
	return finishTraced(cfg, &all, m, col)
}

// timeSetups runs setupBatches batches of set-ups, each until its
// set-ups have taken batch, and returns each batch's mean time per
// set-up in ns. Before each set-up it calls discard, untimed, to tear
// down the previous one; the last set-up stays up.
func timeSetups(batch time.Duration, discard func(), setup func() error) ([]float64, error) {
	var means []float64
	for b := 0; b < setupBatches; b++ {
		var spent time.Duration
		n := 0
		for n == 0 || spent < batch {
			discard()
			t := time.Now()
			if err := setup(); err != nil {
				return nil, err
			}
			spent += time.Since(t)
			n++
		}
		means = append(means, float64(spent)/float64(n))
	}
	return means, nil
}

// runPhases runs the warm-up and then the measured window with drive,
// adding every phase to all. An untraced run measures the whole window
// into m.main. A traced run measures its first half untraced into
// m.main and its second half traced into m.traced, calling hook with
// the collector just before the traced half and with nil just after;
// it returns the collector.
func runPhases(cfg runConfig, m *measured, all *phaseStats, drive func(time.Duration, *Collector) phaseStats, hook func(*Collector)) *Collector {
	warm, window := phases(cfg.seconds)
	w := drive(warm, nil)
	all.merge(&w)
	if !cfg.trace {
		m.main = drive(window, nil)
		all.merge(&m.main)
		return nil
	}
	m.rt0 = sampleRuntime()
	m.main = drive(window/2, nil)
	m.rt1 = sampleRuntime()
	all.merge(&m.main)
	col := NewCollector()
	hook(col)
	m.traced = drive(window/2, col)
	hook(nil)
	all.merge(&m.traced)
	return col
}

func finishTraced(cfg runConfig, all *phaseStats, m *measured, col *Collector) (*result, error) {
	spans := col.Spans()
	m.spans = newSpanStats(spans)
	name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
	if err := writeSpans(cfg.traceDir, name, spans); err != nil {
		return nil, err
	}
	return finish(cfg, all, perLayer(m))
}

func finish(cfg runConfig, all *phaseStats, values map[string]float64) (*result, error) {
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := &result{Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = all.failed == 0 && all.attempted > 0
	for _, e := range all.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return res, nil
}

func endToEnd(m *measured) map[string]float64 {
	rps, p50, goodput := m.main.windowed()
	return map[string]float64{
		"req_per_s":        rps,
		"req_p50_ms":       p50 / 1e6,
		"goodput_mb_per_s": goodput / 1e6,
		"setup_s":          median(m.setups) / 1e9,
		"peak_rss_mb":      peakRSSMB(),
	}
}

func perLayer(m *measured) map[string]float64 {
	tp, up := &m.traced, &m.main
	done := float64(tp.completed())
	perReq := func(counter string) float64 { return m.counters[counter] / done }
	durUs := func(span string, q float64) float64 { return quantile(m.spans.dur[span], q) / 1e3 }
	selfUs := func(span string) float64 { return quantile(m.spans.self[span], 0.5) / 1e3 }
	v := map[string]float64{
		"gen.req_p99_ms":                tp.latencies().quantile(0.99) / 1e6,
		"gen.lag_p99_ms":                tp.lag.quantile(0.99) / 1e6,
		"gen.connect_p50_ms":            tp.connect.quantile(0.50) / 1e6,
		"gen.connect_p99_ms":            tp.connect.quantile(0.99) / 1e6,
		"netsim.frames_per_req":         perReq("netsim.frames_sent"),
		"netsim.frames_dropped":         m.counters["netsim.frames_dropped"],
		"tcpip.connect_p50_us":          durUs("tcpip.connect", 0.50),
		"tcpip.connect_p99_us":          durUs("tcpip.connect", 0.99),
		"tcpip.segs_per_req":            perReq("tcp.segs_sent"),
		"tcpip.retransmits":             m.counters["tcp.retransmits"],
		"tcpip.backend_echo_p50_us":     durUs("tcpip.backend_echo", 0.50),
		"issl.handshake_full_p50_us":    selfUs("issl.handshake_full"),
		"issl.handshake_resumed_p50_us": selfUs("issl.handshake_resumed"),
		"issl.resume_ok_ratio":          ratio(float64(tp.resumed), float64(tp.offers)),
		"issl.resume_offers":            float64(tp.offers),
		"issl.handshakes_failed":        m.counters["issl.handshakes_failed"],
		"issl.write_p50_us":             durUs("issl.write", 0.50),
		"issl.read_p50_us":              durUs("issl.read", 0.50),
		"issl.records_per_req":          perReq("issl.records_out"),
		"issl.signpool_wait_ratio":      ratio(m.counters["issl.signpool_queue_full"], m.counters["issl.signpool_ops"]),
		"redirector.refused":            m.counters["redirector.refused"],
		"cluster.failovers":             m.counters["cluster.failovers"],
		"crypto.rsa_decrypt_us":         m.kernels.rsaDecryptUs,
		"crypto.aes_cbc_us_16k":         m.kernels.aesCBC16kUs,
		"crypto.hmac_sha1_us_16k":       m.kernels.hmac16kUs,
	}
	// The trace's cost: on a closed loop it slows the request rate; an
	// open loop offers the same rate in both halves, so there it shows
	// as latency instead.
	v["trace.overhead_ratio"] = ratio(up.rate(), tp.rate())
	if m.open {
		v["trace.overhead_ratio"] = ratio(tp.latencies().quantile(0.5), up.latencies().quantile(0.5))
	}
	if len(m.ladder) == len(ladderRungs) {
		for i, rung := range ladderRungs {
			v["ladder."+rung+"_us"] = m.ladder[i]
		}
		v["redirector.hop_us"] = m.ladder[2] - m.ladder[1]
		v["cluster.hop_us"] = m.ladder[3] - m.ladder[2]
	}
	// go.*: runtime deltas over the untraced half, so the trace's own
	// allocations do not count.
	wall := m.rt1.at.Sub(m.rt0.at).Seconds()
	v["go.alloc_bytes_per_req"] = ratio(float64(m.rt1.allocBytes-m.rt0.allocBytes), float64(up.completed()))
	v["go.gc_cpu_fraction"] = ratio(m.rt1.gcCPU-m.rt0.gcCPU, m.rt1.totalCPU-m.rt0.totalCPU)
	v["go.cpu_util"] = ratio((m.rt1.rusageCPU - m.rt0.rusageCPU).Seconds(), wall*float64(slots()))
	if r := m.rabbit; r != nil {
		v["rabbit.host_ns_per_sim_cycle"] = ratio(float64(tp.simNs), float64(tp.cycles))
		v["rabbit.sim_mcycles_per_s"] = float64(tp.cycles) / tp.wall.Seconds() / 1e6
		v["dcc.sim_cycles_per_block"] = r.perBlock[0]
		v["dcc.allopt_sim_cycles_per_block"] = r.perBlock[1]
		v["aesasm.sim_cycles_per_block"] = r.perBlock[2]
		v["dcc.compile_ms"] = median(r.compile) / 1e6
		v["rasm.assemble_ms"] = median(r.asm) / 1e6
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
