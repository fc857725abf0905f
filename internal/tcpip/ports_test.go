package tcpip

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/crypto/prng"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// scanEphemeralPort is the oracle for ephemeralPort: the same rule
// read by scanning every TCB for the port, advancing *next exactly as
// ephemeralPort advances s.nextPort. s.mu held.
func scanEphemeralPort(s *Stack, next *uint16) uint16 {
	for i := 0; i < 16384; i++ {
		p := *next
		*next++
		if *next == 0 {
			*next = 49152
		}
		if _, taken := s.listeners[p]; taken {
			continue
		}
		if _, taken := s.udpConns[p]; taken {
			continue
		}
		inUse := false
		for k := range s.tcbs {
			if k.localPort == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
	return 0
}

// checkPortRefs requires the per-port counts to equal a recount of the
// connection table. s.mu held.
func checkPortRefs(t testing.TB, s *Stack) {
	t.Helper()
	want := map[uint16]int{}
	for k := range s.tcbs {
		want[k.localPort]++
	}
	if len(want) != len(s.portRefs) {
		t.Fatalf("portRefs has %d ports, connection table %d", len(s.portRefs), len(want))
	}
	for p, n := range want {
		if s.portRefs[p] != n {
			t.Fatalf("port %d: count %d, connection table holds %d", p, s.portRefs[p], n)
		}
	}
}

// TestEphemeralPortMatchesScan drives the connection table through a
// seeded mix of dials, passive connections sharing a local port,
// stale deletes, UDP binds and teardowns across the range's wrap, and
// requires every allocation to match the scan oracle, port and cursor.
func TestEphemeralPortMatchesScan(t *testing.T) {
	_, stacks := testNet(t, 1)
	s := stacks[0]
	rng := prng.NewXorshift(7)
	peer := IP4(10, 0, 0, 2)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextPort = 65535 - 300 // cross the wrap back to 49152
	var live []tcpKey
	for i := 0; i < 3000; i++ {
		next := s.nextPort
		want := scanEphemeralPort(s, &next)
		got := s.ephemeralPort()
		if got != want || s.nextPort != next {
			t.Fatalf("step %d: port %d cursor %d; scan gives port %d cursor %d",
				i, got, s.nextPort, want, next)
		}
		switch r := rng.Uint32() % 8; {
		case r < 3: // a dial takes the port
			k := tcpKey{peer, 80, got}
			s.insertTCBLocked(k, newTCB(s))
			live = append(live, k)
		case r == 3: // a passive connection on a listening port in the range
			k := tcpKey{peer, uint16(1024 + rng.Uint32()%64), uint16(49152 + rng.Uint32()%512)}
			if _, dup := s.tcbs[k]; !dup {
				live = append(live, k)
			}
			s.insertTCBLocked(k, newTCB(s))
		case r == 4: // a UDP socket comes or goes
			p := uint16(49152 + rng.Uint32()%512)
			if _, ok := s.udpConns[p]; ok {
				delete(s.udpConns, p)
			} else {
				s.udpConns[p] = &UDPConn{}
			}
		case r == 5 && len(live) > 0: // a stale delete is a no-op
			s.deleteTCBLocked(live[rng.Uint32()%uint32(len(live))], newTCB(s))
		default: // a connection goes away
			if len(live) > 0 {
				j := int(rng.Uint32() % uint32(len(live)))
				k := live[j]
				s.deleteTCBLocked(k, s.tcbs[k])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		checkPortRefs(t, s)
	}
	s.udpConns = map[uint16]*UDPConn{} // the stand-ins cannot be closed
}

// TestEphemeralExhaustionTyped fills every count of the ephemeral
// range in place (no connections are started): Connect and ListenUDP(0)
// both fail with ErrNoEphemeralPorts, each failure is counted, and a
// released port is the next one handed out.
func TestEphemeralExhaustionTyped(t *testing.T) {
	hub := netsim.NewHub()
	t.Cleanup(hub.Close)
	reg := telemetry.NewRegistry()
	s, err := NewStackWithTelemetry(hub, IP4(10, 0, 0, 1), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.mu.Lock()
	for p := 49152; p <= 65535; p++ {
		s.portRefs[uint16(p)]++
	}
	s.mu.Unlock()

	if _, err := s.Connect(IP4(10, 0, 0, 2), 7, time.Second); !errors.Is(err, ErrNoEphemeralPorts) {
		t.Errorf("Connect with the range full: err = %v, want ErrNoEphemeralPorts", err)
	}
	if u, err := s.ListenUDP(0); !errors.Is(err, ErrNoEphemeralPorts) {
		t.Errorf("ListenUDP(0) with the range full: conn %v, err = %v, want ErrNoEphemeralPorts", u, err)
	}
	if n := reg.Counter("tcpip.ephemeral_exhausted").Value(); n != 2 {
		t.Errorf("tcpip.ephemeral_exhausted = %d, want 2", n)
	}

	s.mu.Lock()
	delete(s.portRefs, 50000)
	s.mu.Unlock()
	u, err := s.ListenUDP(0)
	if err != nil || u.Port() != 50000 {
		t.Fatalf("ListenUDP(0) after releasing port 50000: %v, %v", u, err)
	}
	u.Close()
}

// TestPortRefsDrainToEmpty: every way a connection ends gives its port
// back — a graceful close through TIME_WAIT on the dialer and LAST_ACK
// on the acceptor, an abort, and a stack close — so the counts drain to
// nothing and ephemeralPort hands the freed ports out again.
func TestPortRefsDrainToEmpty(t *testing.T) {
	_, stacks := testNet(t, 2)
	cli, srv := stacks[0], stacks[1]
	// A backlog above every dial the test makes: a starved accept loop
	// must not turn into refused dials.
	l, err := srv.Listen(7, 512)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept(0)
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 16)
				for {
					if _, err := c.ReadDeadline(buf, time.Now().Add(5*time.Second)); err != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	dial := func() *TCB {
		t.Helper()
		c, err := cli.Connect(srv.Addr(), 7, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for i := 0; i < 300; i++ {
		c := dial()
		if i%10 == 0 {
			c.Abort()
		} else {
			c.Close()
		}
	}
	// counts returns the connection table and port-count sizes after
	// checking that they agree.
	counts := func(s *Stack) (tcbs, ports int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		checkPortRefs(t, s)
		return len(s.tcbs), len(s.portRefs)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ct, cp := counts(cli)
		st, sp := counts(srv)
		if ct+cp+st+sp == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counts never drained: dialer %d TCBs over %d ports, acceptor %d over %d", ct, cp, st, sp)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cli.mu.Lock()
	cli.nextPort = 49152
	p := cli.ephemeralPort()
	cli.mu.Unlock()
	if p != 49152 {
		t.Errorf("freed port 49152 not handed out again: got %d", p)
	}

	for i := 0; i < 5; i++ {
		dial()
	}
	cli.Close()
	srv.Close()
	for _, s := range []*Stack{cli, srv} {
		if n, p := counts(s); n+p != 0 {
			t.Errorf("stack %s closed with %d TCBs over %d ports", s.Addr(), n, p)
		}
	}
}

// TestTimeWaitHoldsNoBuffers: a connection parked in TIME_WAIT keeps
// no send buffer or marshal scratch, frees its receive buffer once the
// reader has taken everything, and still delivers bytes the reader had
// not consumed when the peer's FIN arrived.
func TestTimeWaitHoldsNoBuffers(t *testing.T) {
	_, stacks := testNet(t, 2)
	l, err := stacks[1].Listen(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The dialer closes first, so it is the end that waits; the acceptor
	// answers and closes once it has read the dialer's FIN.
	exchange := func(readReply bool) *TCB {
		t.Helper()
		srvCh := make(chan *TCB, 1)
		go func() {
			c, err := l.Accept(2 * time.Second)
			if err != nil {
				srvCh <- nil
				return
			}
			srvCh <- c
		}()
		cli, err := stacks[0].Connect(stacks[1].Addr(), 7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		srv := <-srvCh
		if srv == nil {
			t.Fatal("accept failed")
		}
		if _, err := cli.Write([]byte("request")); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Write([]byte("reply")); err != nil {
			t.Fatal(err)
		}
		if readReply {
			if got := readAll(t, cli, 5); got != "reply" {
				t.Fatalf("reply = %q", got)
			}
		}
		cli.Close()
		if got := readAll(t, srv, -1); got != "request" {
			t.Fatalf("request = %q", got)
		}
		srv.Close()
		if err := cli.WaitClosed(2 * time.Second); err != nil {
			t.Fatalf("dialer never reached TIME_WAIT: %v (state %s)", err, cli.State())
		}
		cli.mu.Lock()
		defer cli.mu.Unlock()
		if cli.timeWaitAt.IsZero() {
			t.Fatalf("dialer closed without TIME_WAIT (state %s)", cli.state)
		}
		if cli.sndBuf != nil || cli.txScratch != nil {
			t.Errorf("TIME_WAIT keeps sndBuf cap %d, txScratch cap %d", cap(cli.sndBuf), cap(cli.txScratch))
		}
		return cli
	}

	consumed := exchange(true)
	consumed.mu.Lock()
	if consumed.rcvBuf != nil || consumed.rcvPending != nil || consumed.ooo != nil {
		t.Errorf("fully read TIME_WAIT keeps rcvBuf cap %d, rcvPending cap %d, ooo %d",
			cap(consumed.rcvBuf), cap(consumed.rcvPending), len(consumed.ooo))
	}
	consumed.mu.Unlock()

	unread := exchange(false)
	if got := readAll(t, unread, -1); got != "reply" {
		t.Errorf("unread reply after the peer's FIN = %q, want %q", got, "reply")
	}
}

// readAll reads from c until n bytes (n < 0: until EOF) and returns
// them.
func readAll(t *testing.T, c *TCB, n int) string {
	t.Helper()
	var got []byte
	buf := make([]byte, 64)
	for n < 0 || len(got) < n {
		k, err := c.ReadDeadline(buf, time.Now().Add(2*time.Second))
		got = append(got, buf[:k]...)
		if err == io.EOF && n < 0 {
			break
		}
		if err != nil {
			t.Fatalf("read after %q: %v", got, err)
		}
	}
	return string(got)
}

// BenchmarkConnectTimeWait times one Connect+Close on a stack that
// already holds about 10 or about 1,000 TCBs in TIME_WAIT, the ports
// earlier dials left behind. The acceptor closes first, so each
// iteration's own TIME_WAIT lands on its side and the dialer's count
// stays put; the per-op cost should not grow with the parked count.
func BenchmarkConnectTimeWait(b *testing.B) {
	for _, parked := range []int{10, 1000} {
		b.Run(fmt.Sprintf("timewait=%d", parked), func(b *testing.B) {
			hub := netsim.NewHub()
			defer hub.Close()
			cli, err := NewStack(hub, IP4(10, 0, 0, 1))
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			srv, err := NewStack(hub, IP4(10, 0, 0, 2))
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			l, err := srv.Listen(7, 64)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					c, err := l.Accept(0)
					if err != nil {
						return
					}
					c.Close()
				}
			}()
			cli.mu.Lock()
			for i := 0; i < parked; i++ {
				tw := newTCB(cli)
				tw.state = stateTimeWait
				tw.timeWaitAt = time.Now().Add(time.Hour)
				tw.localPort = cli.ephemeralPort()
				tw.remoteIP, tw.remotePort = srv.Addr(), 7
				cli.insertTCBLocked(tcpKey{tw.remoteIP, tw.remotePort, tw.localPort}, tw)
			}
			cli.mu.Unlock()
			buf := make([]byte, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := cli.Connect(srv.Addr(), 7, 2*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.ReadDeadline(buf, time.Now().Add(2*time.Second)); err != io.EOF {
					b.Fatalf("read before close: %v, want EOF", err)
				}
				c.Close()
			}
			b.StopTimer() // the deferred teardown resets every parked TCB
		})
	}
}
