package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// generated is everything a seed determines before a run starts.
type generated struct {
	Plans    [][]reqSpec
	Payloads [][]byte
	Arrivals []int64
}

func generate(seed uint64) generated {
	var g generated
	for c := 1; c <= 64; c++ {
		plan := clientPlan(seed, c)
		g.Plans = append(g.Plans, plan)
		for _, r := range plan {
			g.Payloads = append(g.Payloads, payload(seed, r.Client, r.Index, r.Size))
		}
	}
	g.Payloads = append(g.Payloads, payload(seed, 0, 3, bulkPayload))
	a := newArrivals(seed, freshRate)
	for i := 0; i < 256; i++ {
		g.Arrivals = append(g.Arrivals, int64(a.next()))
	}
	return g
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := generate(7), generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 generated two different request sequences")
	}
	c := generate(8)
	if reflect.DeepEqual(a.Plans, c.Plans) || reflect.DeepEqual(a.Payloads, c.Payloads) || reflect.DeepEqual(a.Arrivals, c.Arrivals) {
		t.Fatal("seeds 7 and 8 share part of their request sequence")
	}
	offers, sizes := 0, map[int]int{}
	for _, plan := range a.Plans {
		for _, r := range plan {
			sizes[r.Size]++
			if r.Offer {
				offers++
			}
		}
	}
	if len(sizes) != len(churnSizes) || offers == 0 {
		t.Fatalf("resume_churn mix looks wrong: sizes %v, %d offers", sizes, offers)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 130, Parent: 0}, // runs past root
		{Name: "d", Start: 15, End: 20, Parent: 1},
	}
	want := []int64{100 - (60 - 10) - (100 - 90), 30 - 5, 30, 40, 5}
	if got := SelfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTinyRunsEmitDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks the result carries exactly the metrics
// BENCHMARK.json declares, with their units, after a correct run. The
// traced runs' spans must have non-negative self times.
func TestTinyRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or metrics")
	}
	dir := t.TempDir()
	for _, wl := range b.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{workload: wl.Name, seed: 3, seconds: 1, trace: traced, traceDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			declared := b.EndToEnd
			if traced {
				declared = b.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, traced, d.Name, m, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", wl.Name, d.Name, m.Value)
				}
			}
			if traced {
				checkSpanFile(t, filepath.Join(dir, wl.Name+"-seed3.jsonl"))
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, self := range SelfTimes(spans) {
		if self < 0 || spans[i].End < spans[i].Start {
			t.Fatalf("%s: span %+v has self time %d", path, spans[i], self)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	var exact []float64
	for i := 1; i <= 10000; i++ {
		ns := float64(i*i) * 37 // 37 ns to 3.7 s
		h.add(ns)
		exact = append(exact, ns)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		got, want := h.quantile(q), quantile(exact, q)
		if got < want/histRatio || got > want*histRatio {
			t.Errorf("q%v: histogram gives %v, exact %v", q, got, want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("empty histogram has a non-zero median")
	}
}
