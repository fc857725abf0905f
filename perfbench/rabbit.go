package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/aesasm"
	"repro/internal/aesc"
	"repro/internal/crypto/aes"
	"repro/internal/crypto/prng"
	"repro/internal/dcc"
)

// The rabbit_aes workload is the paper's E1/E2 experiment as a load:
// each request enciphers a seeded chain of AES-128 blocks on the Rabbit
// simulator three times — C compiled by dcc with debugging on (the
// Dynamic C default), the same C with all optimizations, and the
// hand-written assembly — and checks every result against crypto/aes.

// chainBlocks is the number of chained blocks per request.
const chainBlocks = 2

// rabbitSlots is how many requests are in flight: one. On the 2-CPU
// development host, with one request per CPU the request rate swung
// between 233 and 351 req/s over six runs and the median latency by as
// much; one request in flight, in runs interleaved with those, read
// 146 to 159 req/s. A machine is single-threaded, so one request in
// flight still measures the simulator's speed.
const rabbitSlots = 1

// Simulated cycles per block the E1/E2 tables in EXPERIMENTS.md
// report, as the machines' CyclesPerBlock measures them (the marginal
// cost over n blocks on key i, block 17i). The simulator counts cycles
// exactly and every value is exact in float64, so these must match to
// the cycle.
const (
	e1Blocks         = 8        // E1 measures 8 blocks
	e1DebugCPerBlock = 304438   // E1 "C (Dynamic C build)"
	e1AsmPerBlock    = 17162    // E1 "hand assembly"
	e2Blocks         = 4        // E2 measures 4 blocks
	e2AllOptPerBlock = 201087.5 // E2 "all optimizations", shown rounded as 201,088
)

var (
	debugOpts  = dcc.Options{Debug: true}
	allOptOpts = dcc.Options{Unroll: true, RootData: true, Peephole: true}
)

// rabbitImpl is one of the three programs under the simulator.
type rabbitImpl struct {
	span           string
	chain          func(key, block [16]byte, blocks int) ([16]byte, uint64, error)
	cyclesPerBlock func(blocks int) (float64, error)
}

// rabbitRunner holds one set of machines per slot; a machine is not
// safe for concurrent use.
type rabbitRunner struct {
	seed    uint64
	slots   [][]rabbitImpl
	compile []float64 // ns per aesc.Build
	asm     []float64 // ns per aesasm.Load
	nextReq atomic.Uint64
	// perBlock is each implementation's marginal cycles per block as
	// checkExperiments measured it.
	perBlock [3]float64
}

func newRabbitRunner(seed uint64) (*rabbitRunner, error) {
	r := &rabbitRunner{seed: seed}
	for i := 0; i < rabbitSlots; i++ {
		t := time.Now()
		debug, err := aesc.Build(debugOpts)
		if err != nil {
			return nil, err
		}
		t = r.lap(&r.compile, t)
		opt, err := aesc.Build(allOptOpts)
		if err != nil {
			return nil, err
		}
		t = r.lap(&r.compile, t)
		asm, err := aesasm.Load()
		if err != nil {
			return nil, err
		}
		r.lap(&r.asm, t)
		r.slots = append(r.slots, []rabbitImpl{
			{"dcc.debug_chain", debug.EncryptChain, debug.CyclesPerBlock},
			{"dcc.allopt_chain", opt.EncryptChain, opt.CyclesPerBlock},
			{"aesasm.chain", asm.EncryptChain, asm.CyclesPerBlock},
		})
	}
	return r, nil
}

func (r *rabbitRunner) lap(into *[]float64, since time.Time) time.Time {
	now := time.Now()
	*into = append(*into, float64(now.Sub(since)))
	return now
}

// checkExperiments reruns the E1/E2 measurements on slot 0's machines,
// records them in perBlock, and returns one error per implementation
// whose cycle count differs.
func (r *rabbitRunner) checkExperiments() []error {
	want := []struct {
		blocks   int
		perBlock float64
	}{
		{e1Blocks, e1DebugCPerBlock},
		{e2Blocks, e2AllOptPerBlock},
		{e1Blocks, e1AsmPerBlock},
	}
	var errs []error
	for i, im := range r.slots[0] {
		got, err := im.cyclesPerBlock(want[i].blocks)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		r.perBlock[i] = got
		if got != want[i].perBlock {
			errs = append(errs, fmt.Errorf("%s: %v cycles/block over %d blocks, EXPERIMENTS.md says %v",
				im.span, got, want[i].blocks, want[i].perBlock))
		}
	}
	return errs
}

// request enciphers the next seeded chain on all three programs.
func (r *rabbitRunner) request(i int, due time.Time, ps *phaseStats, tr *Tracer) {
	n := r.nextReq.Add(1)
	rng := prng.NewXorshift(subSeed(r.seed, "chain", n))
	var key, block [16]byte
	rng.Fill(key[:])
	rng.Fill(block[:])
	want, err := referenceChain(key, block, chainBlocks)

	ps.attempted++
	start := time.Now()
	ps.lag.add(float64(start.Sub(due)))
	root := tr.Begin("gen.request", -1, n)
	for _, im := range r.slots[i] {
		if err != nil {
			break
		}
		h := tr.Begin(im.span, root, n)
		t := time.Now()
		got, cyc, cerr := im.chain(key, block, chainBlocks)
		ps.simNs += int64(time.Since(t))
		tr.End(h)
		ps.cycles += cyc
		switch {
		case cerr != nil:
			err = cerr
		case got != want:
			err = fmt.Errorf("%s: ciphertext %x, crypto/aes gives %x", im.span, got, want)
		}
	}
	tr.End(root)
	if err != nil {
		ps.fail(fmt.Errorf("rabbit_aes request %d: %w", n, err))
		return
	}
	ps.complete(due, 16*chainBlocks*len(r.slots[i]))
}

// referenceChain is the chained encryption the simulator runs, done by
// the host's AES: each output block is the next input.
func referenceChain(key, block [16]byte, blocks int) ([16]byte, error) {
	c, err := aes.NewAES(key[:])
	if err != nil {
		return block, err
	}
	for i := 0; i < blocks; i++ {
		c.Encrypt(block[:], block[:])
	}
	return block, nil
}
