package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/issl"
)

// The bulk ladder times one 16 KiB secure echo round trip over four
// paths, each a layer longer than the last:
//
//	pipe:       issl over net.Pipe, to a benchmark-owned issl echo server
//	tcpip:      issl over tcpip/netsim, to the same kind of server
//	redirector: plus the redirector in front of the plaintext backend
//	cluster:    plus the L4 balancer in front of two redirectors
//
// The differences between neighbouring rungs are the redirector and
// balancer hops.

const (
	ladderWarm  = 20
	ladderCalls = 201
)

var ladderRungs = []string{"pipe", "tcpip", "redirector", "cluster"}

// runLadder returns the median round trip of each rung, in µs.
func runLadder(w *world, seed uint64) ([]float64, error) {
	out := make([]float64, 0, len(ladderRungs))
	for i, rung := range ladderRungs {
		us, err := ladderRung(w, seed, i, rung)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", rung, err)
		}
		out = append(out, us)
	}
	return out, nil
}

func ladderRung(w *world, seed uint64, i int, rung string) (float64, error) {
	cfg := issl.Config{Profile: issl.ProfileUnix, Rand: prng.NewXorshift(subSeed(seed, "ladder-client", uint64(i))), HandshakeTimeout: opTimeout}
	srvCfg := issl.Config{Profile: issl.ProfileUnix, ServerKey: w.key, Rand: prng.NewXorshift(subSeed(seed, "ladder-server", uint64(i))), HandshakeTimeout: opTimeout}
	var (
		tr   io.ReadWriteCloser
		done sync.WaitGroup
		stop func()
	)
	switch rung {
	case "pipe":
		cli, srv := net.Pipe()
		done.Add(1)
		go func() {
			defer done.Done()
			serveSecureEcho(srv, srvCfg)
		}()
		tr, stop = cli, func() { cli.Close(); srv.Close() }
	case "tcpip":
		st, err := w.stack(isslEchoIP)
		if err != nil {
			return 0, err
		}
		lst, err := st.Listen(isslEchoPort, 1)
		if err != nil {
			return 0, err
		}
		done.Add(1)
		go func() {
			defer done.Done()
			tcb, err := lst.Accept(opTimeout)
			if err != nil {
				return
			}
			serveSecureEcho(tcb, srvCfg)
			tcb.Close()
		}()
		if tr, err = w.client.Connect(isslEchoIP, isslEchoPort, opTimeout); err != nil {
			return 0, err
		}
		stop = func() { tr.Close(); lst.Close() }
	case "redirector":
		st, err := w.stack(ladderRedIP)
		if err != nil {
			return 0, err
		}
		srv, err := startRedirector(st, w.key, 0, subSeed(seed, "ladder-redirector"), w.reg)
		if err != nil {
			return 0, err
		}
		if tr, err = w.client.Connect(ladderRedIP, servicePort, opTimeout); err != nil {
			srv.Close()
			return 0, err
		}
		stop = func() { tr.Close(); srv.Close() }
	case "cluster":
		var err error
		if tr, err = w.client.Connect(serviceIP, servicePort, opTimeout); err != nil {
			return 0, err
		}
		stop = func() { tr.Close() }
	}
	defer done.Wait()
	defer stop()
	conn, err := issl.BindClient(tr, cfg)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	pay := payload(seed, 1<<20+i, 0, bulkPayload)
	buf := make([]byte, bulkPayload)
	rt := make([]float64, 0, ladderCalls)
	for k := 0; k < ladderWarm+ladderCalls; k++ {
		t := time.Now()
		if err := echo(conn, pay, buf, nil, -1, 0); err != nil {
			return 0, err
		}
		if k >= ladderWarm {
			rt = append(rt, float64(time.Since(t))/1e3)
		}
	}
	return median(rt), nil
}

// serveSecureEcho is the benchmark-owned issl echo server of the first
// two rungs: handshake, then echo until the transport ends.
func serveSecureEcho(tr io.ReadWriter, cfg issl.Config) {
	conn, err := issl.BindServer(tr, cfg)
	if err != nil {
		return
	}
	buf := make([]byte, bulkPayload)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if _, werr := conn.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
