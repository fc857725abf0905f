package main

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/issl"
)

// servingRunner drives one of the three serving workloads against a
// world: resume_churn, fresh_handshake or bulk_cluster.
type servingRunner struct {
	name  string
	seed  uint64
	w     *world
	slots []*servingSlot

	nextClient atomic.Int64
	nextReq    atomic.Uint64
}

// servingSlot is one in-flight position of the load. Only its own
// goroutine touches it.
type servingSlot struct {
	// resume_churn: the returning client currently using this slot.
	plan []reqSpec
	next int
	d    *issl.Dialer
	// bulk_cluster: the slot's long-lived connection.
	conn  *issl.Conn
	tcp   io.ReadWriteCloser
	index int

	payload, echo []byte
	hook          dialHook
}

const (
	freshPayload = 64
	bulkPayload  = 16 << 10
)

func newServingRunner(name string, seed uint64, w *world) *servingRunner {
	r := &servingRunner{name: name, seed: seed, w: w}
	for i := 0; i < slots(); i++ {
		r.slots = append(r.slots, &servingSlot{
			payload: make([]byte, bulkPayload),
			echo:    make([]byte, bulkPayload),
		})
	}
	return r
}

// request runs the slot's next request: for resume_churn the next
// request of its returning client (a new client when the last one is
// done), for fresh_handshake a new client's only request, and for
// bulk_cluster the next 16 KiB echo on the slot's connection.
func (r *servingRunner) request(i int, due time.Time, ps *phaseStats, tr *Tracer) {
	sl := r.slots[i]
	var spec reqSpec
	switch r.name {
	case "resume_churn":
		if sl.next == len(sl.plan) {
			c := int(r.nextClient.Add(1))
			sl.plan, sl.next = clientPlan(r.seed, c), 0
			sl.d = r.w.dialer(subSeed(r.seed, "client-rand", uint64(c)), &sl.hook, serviceIP, servicePort)
		}
		spec = sl.plan[sl.next]
		sl.next++
	case "fresh_handshake":
		c := int(r.nextClient.Add(1))
		spec = reqSpec{Client: c, Size: freshPayload}
		sl.d = r.w.dialer(subSeed(r.seed, "client-rand", uint64(c)), &sl.hook, serviceIP, servicePort)
	case "bulk_cluster":
		spec = reqSpec{Client: i, Index: sl.index, Size: bulkPayload}
		sl.index++
	}
	pay := sl.payload[:spec.Size]
	fillPayload(pay, r.seed, spec.Client, spec.Index)

	ps.attempted++
	start := time.Now()
	ps.lag.add(float64(start.Sub(due)))
	req := r.nextReq.Add(1)
	root := tr.Begin("gen.request", -1, req)
	sl.hook = dialHook{tr: tr, parent: root, req: req}
	err := r.serve(sl, spec, pay, ps, tr, root, start)
	tr.End(root)
	if err != nil {
		ps.fail(fmt.Errorf("%s client %d request %d: %w", r.name, spec.Client, spec.Index, err))
		if sl.conn != nil { // redial on the slot's next request
			sl.conn.Close()
			sl.tcp.Close()
			sl.conn = nil
		}
		return
	}
	ps.complete(due, spec.Size)
}

func (r *servingRunner) serve(sl *servingSlot, spec reqSpec, pay []byte, ps *phaseStats, tr *Tracer, root int, start time.Time) error {
	req := sl.hook.req
	if r.name == "bulk_cluster" && sl.conn != nil {
		return echo(sl.conn, pay, sl.echo, tr, root, req)
	}
	if r.name == "bulk_cluster" {
		sl.d = r.w.dialer(subSeed(r.seed, "client-rand", uint64(spec.Client)), &sl.hook, serviceIP, servicePort)
	}
	if r.name == "resume_churn" && !spec.Offer {
		sl.d.ForgetSession()
	}
	offered := sl.d.Session() != nil
	dial := tr.Begin("issl.handshake", root, req)
	sl.hook.parent = dial
	conn, tcp, err := sl.d.DialWithRetry()
	if err != nil {
		tr.End(dial)
		return fmt.Errorf("dial: %w", err)
	}
	if conn.Resumed() {
		tr.EndAs(dial, "issl.handshake_resumed")
	} else {
		tr.EndAs(dial, "issl.handshake_full")
	}
	ps.connect.add(float64(time.Since(start)))
	if offered {
		ps.offers++
		if conn.Resumed() {
			ps.resumed++
		}
	}
	if r.name == "bulk_cluster" {
		sl.conn, sl.tcp = conn, tcp
		return echo(conn, pay, sl.echo, tr, root, req)
	}
	err = echo(conn, pay, sl.echo, tr, root, req)
	conn.Close()
	tcp.Close()
	return err
}

// echo writes the payload and reads it back, checking every byte.
func echo(conn *issl.Conn, pay, buf []byte, tr *Tracer, parent int, req uint64) error {
	conn.SetReadDeadline(time.Now().Add(opTimeout))
	h := tr.Begin("issl.write", parent, req)
	_, err := conn.Write(pay)
	tr.End(h)
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	got := buf[:len(pay)]
	for n := 0; n < len(got); {
		h := tr.Begin("issl.read", parent, req)
		m, err := conn.Read(got[n:])
		tr.End(h)
		n += m
		if err != nil {
			return fmt.Errorf("read after %d of %d bytes: %w", n, len(got), err)
		}
	}
	if !bytes.Equal(got, pay) {
		return fmt.Errorf("echo mismatch on %d bytes", len(pay))
	}
	return nil
}

// close ends the slots' long-lived connections and the world.
func (r *servingRunner) close() {
	for _, sl := range r.slots {
		if sl.conn != nil {
			sl.conn.Close()
			sl.tcp.Close()
		}
	}
	r.w.close()
}
