package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// phaseStats is what one measured phase produced, summed over slots.
// Latencies go into fixed-size histograms, so the benchmark's own
// records stay the same size however many requests a run completes and
// do not grow peak_rss_mb with throughput.
type phaseStats struct {
	start     time.Time
	length    time.Duration // the planned window
	wall      time.Duration // from phase start to the end of its last request
	attempted int64
	failed    int64
	windows   [statWindows]window // successful requests, by completion time
	connect   hist                // ns from dial start to handshake complete
	lag       hist                // ns the generator started a request after it was due
	offers    int64               // dials that offered a cached session
	resumed   int64               // of those, dials that resumed
	cycles    uint64              // simulated Rabbit cycles
	simNs     int64               // host ns spent inside the simulator
	errs      []string            // first few failure messages
}

// window is the successful requests that ended in one of a phase's
// statWindows equal windows: their latencies in ns and the payload
// bytes they verified.
type window struct {
	lat   hist
	bytes int64
}

// newPhase starts the stats of a phase planned to last length.
func newPhase(start time.Time, length time.Duration) phaseStats {
	return phaseStats{start: start, length: length}
}

// complete records a successful request that was due at due. Requests
// that end after the planned window fall into the last window.
func (p *phaseStats) complete(due time.Time, bytes int) {
	now := time.Now()
	i := statWindows - 1
	if step := p.length / statWindows; step > 0 {
		i = min(int(now.Sub(p.start)/step), statWindows-1)
	}
	p.windows[i].lat.add(float64(now.Sub(due)))
	p.windows[i].bytes += int64(bytes)
}

// latencies is every successful request's latency.
func (p *phaseStats) latencies() *hist {
	var h hist
	for i := range p.windows {
		h.merge(&p.windows[i].lat)
	}
	return &h
}

// completed is the number of successful requests.
func (p *phaseStats) completed() int64 {
	var n int64
	for i := range p.windows {
		n += p.windows[i].lat.n
	}
	return n
}

func (p *phaseStats) rate() float64 { return float64(p.completed()) / p.wall.Seconds() }

// statWindows is how many equal windows the end-to-end metrics split a
// measured phase into; each metric is the median over the windows, so
// a burst of host noise moves at most one of them.
const statWindows = 5

// windowed returns, as medians over the statWindows windows, the
// request rate (1/s), latency p50 (ns) and goodput (bytes/s). The last
// window stretches to the end of the phase's last request.
func (p *phaseStats) windowed() (rps, p50, goodput float64) {
	step := p.length / statWindows
	var r, q50, g []float64
	for i := range p.windows {
		secs := step.Seconds()
		if last := p.wall - step*(statWindows-1); i == statWindows-1 && last > 0 {
			secs = last.Seconds()
		}
		w := &p.windows[i]
		r = append(r, float64(w.lat.n)/secs)
		q50 = append(q50, w.lat.quantile(0.50))
		g = append(g, float64(w.bytes)/secs)
	}
	return median(r), median(q50), median(g)
}

func (p *phaseStats) fail(err error) {
	p.failed++
	if len(p.errs) < 4 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	for i := range p.windows {
		p.windows[i].lat.merge(&o.windows[i].lat)
		p.windows[i].bytes += o.windows[i].bytes
	}
	p.connect.merge(&o.connect)
	p.lag.merge(&o.lag)
	p.offers += o.offers
	p.resumed += o.resumed
	p.cycles += o.cycles
	p.simNs += o.simNs
	for _, e := range o.errs {
		if len(p.errs) < 4 {
			p.errs = append(p.errs, e)
		}
	}
}

// requestFunc runs one request on a slot. due is when the generator
// meant it to start; latency counts from there.
type requestFunc func(slot int, due time.Time, ps *phaseStats, tr *Tracer)

// slots is the load's concurrency: one request in flight per CPU.
func slots() int { return runtime.NumCPU() }

// runClosed runs a closed loop on n slots: every slot issues its next
// request as soon as the previous one completes, until d has passed.
// Requests started before the deadline run to completion.
func runClosed(d time.Duration, n int, col *Collector, req requestFunc) phaseStats {
	start := time.Now()
	deadline := start.Add(d)
	per, ends := slotPhases(start, d, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := col.Tracer()
			due := start
			for due.Before(deadline) {
				req(i, due, &per[i], tr)
				due = time.Now()
			}
			ends[i] = due
		}(i)
	}
	wg.Wait()
	return mergePhase(start, d, per, ends)
}

// runOpen runs an open loop: one aggregate Poisson schedule at rate
// requests per second, for the arrivals due within d. A due request
// waits for a free slot, so at most slots() are in flight; the wait is
// the generator's lag and is part of the request's latency.
func runOpen(d time.Duration, sched *arrivals, col *Collector, req requestFunc) phaseStats {
	n := slots()
	start := time.Now()
	jobs := make(chan time.Time) // unbuffered: a due request waits here for a slot
	per, ends := slotPhases(start, d, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := col.Tracer()
			for due := range jobs {
				req(i, due, &per[i], tr)
				ends[i] = time.Now()
			}
		}(i)
	}
	base := sched.at // the schedule continues across phases
	for {
		off := sched.next() - base
		if off >= d {
			break
		}
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- due
	}
	close(jobs)
	wg.Wait()
	return mergePhase(start, d, per, ends)
}

// slotPhases makes each of n slots' stats for a phase, and the slot's
// end time, which starts as the phase's start.
func slotPhases(start time.Time, d time.Duration, n int) ([]phaseStats, []time.Time) {
	per := make([]phaseStats, n)
	ends := make([]time.Time, n)
	for i := range per {
		per[i], ends[i] = newPhase(start, d), start
	}
	return per, ends
}

func mergePhase(start time.Time, d time.Duration, per []phaseStats, ends []time.Time) phaseStats {
	ps := newPhase(start, d)
	last := start
	for i := range per {
		ps.merge(&per[i])
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	ps.wall = last.Sub(start)
	return ps
}

// hist counts durations in ns in logarithmic buckets, each histRatio
// wide, from histMin up: a few kilobytes, however many it counts.
type hist struct {
	n      int64
	counts []uint32 // nil until the first add
}

const (
	histMin     = 10.0  // ns; shorter durations count in the first bucket
	histRatio   = 1.005 // each bucket's upper edge over its lower edge
	histBuckets = 5000  // up to histMin × histRatio^histBuckets, about 12 min
)

var logHistRatio = math.Log(histRatio)

func (h *hist) add(ns float64) {
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	i := 0
	if ns > histMin {
		i = min(int(math.Log(ns/histMin)/logHistRatio), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile, placed inside its bucket by
// its rank among the bucket's counts, so it is within histRatio of the
// exact value and moves smoothly with the data (0 when h is empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var seen int64
	for i, c := range h.counts {
		if seen+int64(c) >= rank {
			frac := float64(rank-seen) / float64(c)
			return histMin * math.Exp((float64(i)+frac)*logHistRatio)
		}
		seen += int64(c)
	}
	return histMin * math.Exp(histBuckets*logHistRatio)
}
