package issl

// The record layer over transports without Peek/Discard: net.Pipe, a
// byte stream that hangs up, and the steady-state echo that must stay
// off the allocator whichever way the transport delivers bytes.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/race"
)

func TestReadDeadlineOverPipe(t *testing.T) {
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)

	cli.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	n, err := cli.Read(make([]byte, 16))
	if n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read = %d, %v; want the pipe's timeout error", n, err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("timeout error %v is not a net.Error with Timeout()", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("deadline took %v to fire", d)
	}

	// The deadline was released with the failed read: once cleared, a
	// late record still arrives intact.
	cli.SetReadDeadline(time.Time{})
	werr := make(chan error, 1)
	go func() {
		_, err := srv.Write([]byte("late"))
		werr <- err
	}()
	buf := make([]byte, 16)
	n, err = cli.Read(buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("Read after timeout = %q, %v", buf[:n], err)
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
}

// TestRecordReadErrorsOverByteStream pins what Read returns when a
// stream (conform's byteFeed model: fixed bytes, then EOF) ends inside
// a record.
func TestRecordReadErrorsOverByteStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want string
		is   error
	}{
		{"empty", nil, "EOF", io.EOF},
		{"2-byte header", []byte{recData, protocolVersion}, "unexpected EOF", io.ErrUnexpectedEOF},
		{"short body", []byte{recData, protocolVersion, 0, 10, 1, 2, 3},
			"issl: malformed record: truncated body: unexpected EOF", ErrBadRecord},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fuzzKeyedConn(t, &fuzzTransport{r: bytes.NewReader(tc.in)})
			n, err := c.Read(make([]byte, 16))
			if n != 0 || err == nil || err.Error() != tc.want || !errors.Is(err, tc.is) {
				t.Fatalf("Read = %d, %v; want %q (is %v)", n, err, tc.want, tc.is)
			}
		})
	}
}

// TestPipeEchoZeroAlloc pins the steady-state secure echo over
// net.Pipe at zero allocations per round trip, both directions and the
// server's echo loop included.
func TestPipeEchoZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	cliCfg, srvCfg := embeddedConfigs()
	cli, srv := handshakePair(t, cliCfg, srvCfg)
	defer cli.Close() // close_notify ends the echo loop
	go func() {
		buf := make([]byte, 1024)
		for {
			n, err := srv.Read(buf)
			if err != nil {
				return
			}
			if _, err := srv.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	payload := bytes.Repeat([]byte{0x5a}, 512)
	rbuf := make([]byte, 1024)
	roundTrip := func() {
		if _, err := cli.Write(payload); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(payload); {
			n, err := cli.Read(rbuf[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	for i := 0; i < 20; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("pipe echo round trip allocates %.1f objects/op, want 0", n)
	}
	if !bytes.Equal(rbuf[:len(payload)], payload) {
		t.Fatal("echo corrupted the payload")
	}
}
