package issl

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/crypto/prng"
	"repro/internal/crypto/sha1"
	"repro/internal/race"
)

// sealRecordRef rebuilds a sealed body the way the seed kernel did —
// allocating Pad + EncryptCBC + one-shot HMAC — against a snapshot of
// the conn's write state, without advancing that state.
func sealRecordRef(t *testing.T, c *Conn, rngSeed uint64, seq uint64, recType byte, pt []byte) []byte {
	t.Helper()
	rng := prng.NewXorshift(rngSeed)
	bs := c.wCipher.BlockSize()
	iv := rng.Bytes(bs)
	padded := c.wCipher.Pad(pt)
	ct, err := c.wCipher.EncryptCBC(iv, padded)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 0, 9+len(iv)+len(ct))
	for i := 0; i < 8; i++ {
		msg = append(msg, byte(seq>>(56-8*i)))
	}
	msg = append(msg, recType)
	msg = append(msg, iv...)
	msg = append(msg, ct...)
	m := sha1.HMAC(c.wMAC, msg)
	out := append(iv, ct...)
	return append(out, m[:macLen]...)
}

// TestSealMatchesReference pins the wire format: the in-place sealing
// path must emit byte-identical records to the seed implementation
// (same rng consumption, same padding, same MAC) across seeded vectors.
func TestSealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 1_000; i++ {
		seed := uint64(1000 + i)
		c := fuzzKeyedConn(t, nil)
		c.rng = prng.NewXorshift(seed)
		c.wSeq = uint64(rng.Intn(1 << 20))
		pt := make([]byte, rng.Intn(600))
		rng.Read(pt)

		want := sealRecordRef(t, c, seed, c.wSeq, recData, pt)
		got, err := c.sealRecord(recData, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("vector %d: sealed record differs from seed kernel output", i)
		}
	}
}

// TestRecordSealOpenZeroAlloc pins the tentpole contract: steady-state
// seal and open allocate nothing.
func TestRecordSealOpenZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	w, r := fuzzKeyedConn(t, nil), fuzzKeyedConn(t, nil)
	pt := make([]byte, 512)
	buf := make([]byte, 0, 1024)
	var sealErr error
	if n := testing.AllocsPerRun(100, func() {
		buf, sealErr = w.appendSealed(buf[:0], recData, pt)
	}); n != 0 {
		t.Errorf("appendSealed allocates %v per record, want 0", n)
	}
	if sealErr != nil {
		t.Fatal(sealErr)
	}

	// openRecord consumes its input (in-place decrypt), so each run
	// re-copies the pristine ciphertext into a reused scratch buffer.
	rec, err := w.appendSealed(nil, recData, pt)
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), rec[recordHeaderLen:]...)
	scratch := make([]byte, len(pristine))
	seq := w.wSeq - 1
	var openErr error
	if n := testing.AllocsPerRun(100, func() {
		copy(scratch, pristine)
		r.rSeq = seq
		_, openErr = r.openRecord(recData, scratch)
	}); n != 0 {
		t.Errorf("openRecord allocates %v per record, want 0", n)
	}
	if openErr != nil {
		t.Fatal(openErr)
	}
}

// TestWriteBatchesRecords checks that one large Write reaches the
// transport in far fewer calls than records, and that a full-duplex
// round trip through the batched path still delivers the bytes.
func TestWriteBatchesRecords(t *testing.T) {
	ct := &countingTransport{}
	w := fuzzKeyedConn(t, ct)
	w.cfg.Profile = ProfileEmbedded // 1 KiB records: forces fragmentation
	payload := make([]byte, 40_000) // ~40 records at 1 KiB
	rand.New(rand.NewSource(52)).Read(payload)
	n, err := w.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if w.recordsOut < 2 {
		t.Fatalf("expected fragmentation, got %d records", w.recordsOut)
	}
	if uint64(ct.writes) >= w.recordsOut {
		t.Errorf("%d transport writes for %d records; expected batching", ct.writes, w.recordsOut)
	}

	// Replay the batched stream through a reading conn.
	r := fuzzKeyedConn(t, &fuzzTransport{r: bytes.NewReader(ct.buf.Bytes())})
	got := make([]byte, 0, len(payload))
	rbuf := make([]byte, 4096)
	for len(got) < len(payload) {
		m, err := r.Read(rbuf)
		if err != nil {
			t.Fatalf("Read after %d bytes: %v", len(got), err)
		}
		got = append(got, rbuf[:m]...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("batched write round trip corrupted payload")
	}
}

type countingTransport struct {
	buf    bytes.Buffer
	writes int
}

func (c *countingTransport) Read(p []byte) (int, error) { return c.buf.Read(p) }
func (c *countingTransport) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

func BenchmarkRecordSeal_1K(b *testing.B) {
	w := fuzzKeyedConn(b, nil)
	pt := make([]byte, 1024)
	buf := make([]byte, 0, 2048)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = w.appendSealed(buf[:0], recData, pt)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordOpen_1K(b *testing.B) {
	w, r := fuzzKeyedConn(b, nil), fuzzKeyedConn(b, nil)
	pt := make([]byte, 1024)
	rec, err := w.appendSealed(nil, recData, pt)
	if err != nil {
		b.Fatal(err)
	}
	pristine := append([]byte(nil), rec[recordHeaderLen:]...)
	scratch := make([]byte, len(pristine))
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		copy(scratch, pristine)
		r.rSeq = 0
		if _, err := r.openRecord(recData, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
