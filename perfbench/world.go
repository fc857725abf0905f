package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/crypto/prng"
	"repro/internal/crypto/rsa"
	"repro/internal/issl"
	"repro/internal/netsim"
	"repro/internal/redirector"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
)

// Fabric layout. The client, the public service address (a redirector
// or the balancer) and the plaintext backend keep the addresses the
// repo's examples use; the bulk ladder's extra hosts sit beside them.
var (
	clientIP    = tcpip.IP4(10, 0, 0, 1)
	serviceIP   = tcpip.IP4(10, 0, 0, 2)
	backendIP   = tcpip.IP4(10, 0, 0, 3)
	isslEchoIP  = tcpip.IP4(10, 0, 0, 4)
	ladderRedIP = tcpip.IP4(10, 0, 0, 5)
)

const (
	servicePort  = 4443
	backendPort  = 7
	isslEchoPort = 4444
)

// servingShape is what distinguishes the three serving workloads'
// worlds.
type servingShape struct {
	keyBits     int
	cluster     bool // 2 redirector instances behind the L4 balancer
	signWorkers int
}

// world is one running serving stack: netsim hub, the client's stack,
// the benchmark-owned plaintext backend, and either one redirector or a
// two-instance cluster. All counters land on reg, except those of the
// cluster instances, which keep private registries (see counter).
type world struct {
	hub     *netsim.Hub
	reg     *telemetry.Registry
	key     *rsa.PrivateKey
	client  *tcpip.Stack
	backend *echoBackend
	stacks  []*tcpip.Stack
	srv     *redirector.UnixServer
	cl      *cluster.Cluster
}

// buildWorld brings a serving world up. Every set-up of every run
// builds the same RSA key, derived from a constant and not from the
// seed: the prime search's cost varies several-fold from key to key,
// and setup_s should not depend on which keys a run happened to draw.
func buildWorld(seed uint64, shape servingShape) (*world, error) {
	w := &world{hub: netsim.NewHub(), reg: telemetry.NewRegistry()}
	w.hub.SetTelemetry(w.reg, nil)
	fail := func(err error) (*world, error) {
		w.close()
		return nil, err
	}
	key, err := rsa.GenerateKey(prng.NewXorshift(subSeed(0, "rsa")), shape.keyBits)
	if err != nil {
		return fail(fmt.Errorf("rsa keygen: %w", err))
	}
	w.key = key
	if w.client, err = w.stack(clientIP); err != nil {
		return fail(err)
	}
	back, err := w.stack(backendIP)
	if err != nil {
		return fail(err)
	}
	if w.backend, err = startEchoBackend(back, backendPort); err != nil {
		return fail(err)
	}
	if shape.cluster {
		w.cl, err = cluster.New(w.hub, cluster.Config{
			Nodes:          2,
			ListenPort:     servicePort,
			BalancerIP:     serviceIP,
			Target:         backendIP,
			TargetPort:     backendPort,
			Secure:         true,
			ServerKey:      key,
			TicketMaterial: prng.NewXorshift(subSeed(seed, "tickets")).Bytes(32),
			SignWorkers:    shape.signWorkers,
			Policy:         cluster.NewConsistentHash(0),
			RandSeed:       subSeed(seed, "cluster"),
			Metrics:        w.reg,
		})
		if err != nil {
			return fail(fmt.Errorf("cluster: %w", err))
		}
		return w, nil
	}
	mid, err := w.stack(serviceIP)
	if err != nil {
		return fail(err)
	}
	w.srv, err = startRedirector(mid, key, shape.signWorkers, subSeed(seed, "redirector"), w.reg)
	if err != nil {
		return fail(err)
	}
	return w, nil
}

// liveSessions sizes the redirector's session cache. It holds every
// live session with a wide margin: at most slots() clients are active
// at once, each making a few sessions over its 8 requests, so LRU
// evicts only sessions of clients that are done. A bounded cache also
// keeps peak_rss_mb independent of how many requests a run completes.
const liveSessions = 1024

// startRedirector runs a secure Unix redirector on stack that forwards
// to the backend, with a session cache and no tickets.
func startRedirector(stack *tcpip.Stack, key *rsa.PrivateKey, signWorkers int, seed uint64, reg *telemetry.Registry) (*redirector.UnixServer, error) {
	srv, err := redirector.NewUnixServer(stack, redirector.Config{
		ListenPort:   servicePort,
		Target:       backendIP,
		TargetPort:   backendPort,
		Secure:       true,
		ServerKey:    key,
		SessionCache: issl.NewSessionCache(liveSessions),
		SignWorkers:  signWorkers,
		RandSeed:     seed,
		Metrics:      reg,
	})
	if err != nil {
		return nil, fmt.Errorf("redirector: %w", err)
	}
	go srv.Serve()
	return srv, nil
}

func (w *world) stack(ip tcpip.Addr) (*tcpip.Stack, error) {
	s, err := tcpip.NewStackWithTelemetry(w.hub, ip, w.reg, nil)
	if err != nil {
		return nil, fmt.Errorf("stack %v: %w", ip, err)
	}
	w.stacks = append(w.stacks, s)
	return s, nil
}

// counter sums a counter over the world's registry and, in a cluster,
// every instance's private registry.
func (w *world) counter(name string) uint64 {
	v := w.reg.Counter(name).Value()
	if w.cl != nil {
		for i := 0; i < w.cl.Nodes(); i++ {
			v += w.cl.NodeRegistry(i).Counter(name).Value()
		}
	}
	return v
}

// counters reads the counters the per-layer metrics are deltas of.
func (w *world) counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range []string{
		"netsim.frames_sent", "netsim.frames_dropped",
		"tcp.segs_sent", "tcp.retransmits",
		"issl.records_out", "issl.handshakes_failed",
		"issl.signpool_ops", "issl.signpool_queue_full",
		"redirector.refused", "cluster.failovers",
	} {
		out[n] = w.counter(n)
	}
	return out
}

// close tears the world down: servers first, so their handlers finish,
// then the stacks, which ends the backend's echo goroutines, then the
// hub.
func (w *world) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.cl != nil {
		w.cl.Close()
	}
	if w.backend != nil {
		w.backend.stopAccepting()
	}
	for _, s := range w.stacks {
		s.Close()
	}
	if w.backend != nil {
		w.backend.wg.Wait()
	}
	w.hub.Close()
}

// dialHook is the span context a dialer's connect hook records under;
// its owner updates it before each dial.
type dialHook struct {
	tr     *Tracer
	parent int
	req    uint64
}

// dialer returns an issl client that reaches dst:port over the client
// stack. Each TCP connect is recorded as a tcpip.connect span under the
// hook's parent.
func (w *world) dialer(randSeed uint64, hook *dialHook, dst tcpip.Addr, port uint16) *issl.Dialer {
	return &issl.Dialer{
		Dial: func() (io.ReadWriteCloser, error) {
			h := hook.tr.Begin("tcpip.connect", hook.parent, hook.req)
			tcb, err := w.client.Connect(dst, port, opTimeout)
			hook.tr.End(h)
			if err != nil {
				return nil, err
			}
			return tcb, nil
		},
		Config: issl.Config{
			Profile:          issl.ProfileUnix,
			Rand:             prng.NewXorshift(randSeed),
			HandshakeTimeout: opTimeout,
			Metrics:          w.reg,
		},
		Policy: issl.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, JitterPct: -1},
	}
}

// opTimeout bounds every connect, handshake and echo, so a stall ends
// as a failed operation rather than a hung run.
const opTimeout = 10 * time.Second

// echoBackend is the benchmark's own plaintext echo server. Each echo
// step (one ReadDeadline and the Write of what it returned) is a
// tcpip.backend_echo span while a collector is set; the wait for the
// next bytes is not.
type echoBackend struct {
	lst  *tcpip.Listener
	col  atomic.Pointer[Collector]
	stop chan struct{}
	wg   sync.WaitGroup
}

func startEchoBackend(stack *tcpip.Stack, port uint16) (*echoBackend, error) {
	lst, err := stack.Listen(port, 64)
	if err != nil {
		return nil, fmt.Errorf("backend listen: %w", err)
	}
	b := &echoBackend{lst: lst, stop: make(chan struct{})}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

func (b *echoBackend) acceptLoop() {
	defer b.wg.Done()
	for {
		tcb, err := b.lst.Accept(50 * time.Millisecond)
		if err != nil {
			select {
			case <-b.stop:
				return
			default:
				if errors.Is(err, tcpip.ErrConnClosed) {
					return
				}
				continue
			}
		}
		b.wg.Add(1)
		go b.echo(tcb)
	}
}

func (b *echoBackend) echo(tcb *tcpip.TCB) {
	defer b.wg.Done()
	defer tcb.Close()
	var col *Collector
	var tr *Tracer
	buf := make([]byte, 16<<10)
	for {
		// Wait for bytes without consuming them, so the span below
		// covers the echo work and not the idle wait.
		if _, err := tcb.Peek(1, time.Time{}); err != nil {
			return
		}
		tcb.Discard(0)
		if c := b.col.Load(); c != col {
			col, tr = c, c.Tracer()
		}
		h := tr.Begin("tcpip.backend_echo", -1, 0)
		n, err := tcb.ReadDeadline(buf, time.Time{})
		if n > 0 {
			if _, werr := tcb.Write(buf[:n]); werr != nil {
				tr.End(h)
				return
			}
		}
		tr.End(h)
		if err != nil {
			return
		}
	}
}

// stopAccepting ends the accept loop. The echo goroutines end when
// their peers close or the stack closes; wait for them on b.wg.
func (b *echoBackend) stopAccepting() {
	close(b.stop)
	b.lst.Close()
}
