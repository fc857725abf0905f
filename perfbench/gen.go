package main

import (
	"math"
	"time"

	"repro/internal/crypto/prng"
)

// Everything a workload sends is a pure function of the run's seed:
// which payload size and resumption choice a request gets, the payload
// bytes themselves, and (for the open loop) when each request is due.
// The program under test sees only these generated inputs.

// mix is splitmix64's finalizer; it turns (seed, ids) into independent
// PRNG seeds.
func mix(v uint64) uint64 {
	v += 0x9E3779B97F4A7C15
	v = (v ^ v>>30) * 0xBF58476D1CE4E5B9
	v = (v ^ v>>27) * 0x94D049BB133111EB
	return v ^ v>>31
}

// subSeed derives a stream seed for one purpose from the run seed.
func subSeed(seed uint64, purpose string, ids ...uint64) uint64 {
	h := mix(seed)
	for _, c := range []byte(purpose) {
		h = mix(h ^ uint64(c))
	}
	for _, id := range ids {
		h = mix(h ^ id)
	}
	if h == 0 {
		h = 1 // xorshift needs a non-zero state
	}
	return h
}

// reqSpec is one generated request.
type reqSpec struct {
	Client int
	Index  int
	Size   int
	Offer  bool // offer the client's cached session (resume_churn)
}

// Resume-churn shape: returning clients make requestsPerClient requests,
// each on a fresh connection; offerPct of the reconnects offer the
// cached session.
const (
	requestsPerClient = 8
	offerPct          = 95
)

// churnSizes is the resume_churn payload mix: 64 B ×60, 512 B ×30,
// 4 KiB ×10.
var churnSizes = []struct{ size, weight int }{{64, 60}, {512, 30}, {4096, 10}}

// clientPlan returns the requests one resume_churn client makes.
func clientPlan(seed uint64, client int) []reqSpec {
	rng := prng.NewXorshift(subSeed(seed, "client", uint64(client)))
	plan := make([]reqSpec, requestsPerClient)
	for i := range plan {
		r := rng.Intn(100)
		size := churnSizes[len(churnSizes)-1].size
		for _, c := range churnSizes {
			if r < c.weight {
				size = c.size
				break
			}
			r -= c.weight
		}
		plan[i] = reqSpec{Client: client, Index: i, Size: size, Offer: i > 0 && rng.Intn(100) < offerPct}
	}
	return plan
}

// fillPayload writes the payload of (client, index) into buf.
func fillPayload(buf []byte, seed uint64, client, index int) {
	prng.NewXorshift(subSeed(seed, "payload", uint64(client), uint64(index))).Fill(buf)
}

// payload returns a fresh payload of the given size.
func payload(seed uint64, client, index, size int) []byte {
	buf := make([]byte, size)
	fillPayload(buf, seed, client, index)
	return buf
}

// arrivals is the open loop's single aggregate Poisson schedule: the
// offsets, from the start of the schedule, at which requests are due.
type arrivals struct {
	rng  *prng.Xorshift
	rate float64
	at   time.Duration
}

func newArrivals(seed uint64, rate float64) *arrivals {
	return &arrivals{rng: prng.NewXorshift(subSeed(seed, "arrivals")), rate: rate}
}

// next returns the due offset of the next request.
func (a *arrivals) next() time.Duration {
	u := float64(a.rng.Next64()>>11) / (1 << 53) // uniform in [0, 1)
	a.at += time.Duration(-math.Log(1-u) / a.rate * float64(time.Second))
	return a.at
}
