package main

import (
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/transport"
	"melissa/internal/wire"
)

// endpointRole tells which component owns a receiver. The launcher listens
// first in launcher.Run, the server processes next, and every later listen
// is a group's reply inbox for the handshake.
type endpointRole uint8

const (
	roleLauncher endpointRole = iota
	roleServer
	roleReply
	numRoles
)

// traceNet decorates a transport.Network for one traced study: it times
// Dial, Send and Recv, counts frames and bytes by wire.PayloadType, keeps
// launcher-inbox traffic apart from data traffic, and records spans into a
// preallocated buffer. The untraced runs use the bare network.
type traceNet struct {
	inner transport.Network
	buf   *spanBuf
	root  int32 // the study span every transport span hangs from
	procs int

	mu      sync.Mutex
	listens int
	roles   map[string]endpointRole

	dials     atomic.Int64 // group dials to server processes
	dialNanos atomic.Int64

	sendFrames [256]atomic.Int64 // by payload type
	sendBytes  [256]atomic.Int64
	sendNanos  [256]atomic.Int64

	recvFrames [numRoles]atomic.Int64
	recvWait   [numRoles]atomic.Int64 // nanoseconds inside Recv
	recvBusy   [numRoles]atomic.Int64 // nanoseconds between Recv calls
}

func newTraceNet(inner transport.Network, buf *spanBuf, root int32, procs int) *traceNet {
	return &traceNet{inner: inner, buf: buf, root: root, procs: procs, roles: make(map[string]endpointRole)}
}

// Listen implements transport.Network.
func (n *traceNet) Listen(hint string) (transport.Receiver, error) {
	r, err := n.inner.Listen(hint)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	role := roleReply
	switch {
	case n.listens == 0:
		role = roleLauncher
	case n.listens <= n.procs:
		role = roleServer
	}
	n.listens++
	n.roles[r.Addr()] = role
	n.mu.Unlock()
	return &traceReceiver{inner: r, net: n, role: role}, nil
}

// Dial implements transport.Network.
func (n *traceNet) Dial(addr string) (transport.Sender, error) {
	t0 := n.buf.now()
	s, err := n.inner.Dial(addr)
	t1 := n.buf.now()
	n.mu.Lock()
	role, known := n.roles[addr]
	n.mu.Unlock()
	if known && role == roleServer {
		n.dials.Add(1)
		n.dialNanos.Add(t1 - t0)
		n.buf.add(kindDial, n.root, noTrace, noTrace, t0, t1)
	}
	if err != nil {
		return nil, err
	}
	return &traceSender{inner: s, net: n}, nil
}

// traceID reads the (group, first step) of a data frame from its header
// with wire's public parsers; control frames have no trace id.
type traceID struct {
	raw  wire.DataBatchView
	comp wire.DataBatchCView
	one  wire.DataView
}

func (v *traceID) of(payload []byte) (group, step int) {
	switch wire.PayloadType(payload) {
	case wire.TypeDataBatch:
		if v.raw.Parse(payload) == nil && v.raw.NumSteps() > 0 {
			return v.raw.GroupID, v.raw.StepTimestep(0)
		}
	case wire.TypeDataBatchC:
		if v.comp.Parse(payload) == nil && v.comp.NumSteps() > 0 {
			return v.comp.GroupID, v.comp.StepTimestep(0)
		}
	case wire.TypeData:
		if v.one.Parse(payload) == nil {
			return v.one.GroupID, v.one.Timestep
		}
	}
	return noTrace, noTrace
}

type traceSender struct {
	inner transport.Sender
	net   *traceNet
	mu    sync.Mutex
	ids   traceID
}

// Send implements transport.Sender.
func (s *traceSender) Send(payload []byte) error {
	typ := wire.PayloadType(payload)
	s.mu.Lock()
	group, step := s.ids.of(payload)
	s.mu.Unlock()
	n := s.net
	t0 := n.buf.now()
	err := s.inner.Send(payload)
	t1 := n.buf.now()
	n.sendFrames[typ].Add(1)
	n.sendBytes[typ].Add(int64(len(payload)))
	n.sendNanos[typ].Add(t1 - t0)
	n.buf.add(kindSend, n.root, group, step, t0, t1)
	return err
}

// Close implements transport.Sender.
func (s *traceSender) Close() error { return s.inner.Close() }

type traceReceiver struct {
	inner transport.Receiver
	net   *traceNet
	role  endpointRole
	// last is when the previous Recv returned (0 before the first call).
	last atomic.Int64
	mu   sync.Mutex
	ids  traceID
}

// Recv implements transport.Receiver.
func (r *traceReceiver) Recv(timeout time.Duration) (transport.Message, error) {
	n := r.net
	t0 := n.buf.now()
	if last := r.last.Load(); last > 0 {
		n.recvBusy[r.role].Add(t0 - last)
	}
	msg, err := r.inner.Recv(timeout)
	t1 := n.buf.now()
	r.last.Store(t1)
	n.recvWait[r.role].Add(t1 - t0)
	if err == nil {
		n.recvFrames[r.role].Add(1)
		r.mu.Lock()
		group, step := r.ids.of(msg.Payload)
		r.mu.Unlock()
		n.buf.add(kindRecv, n.root, group, step, t0, t1)
	}
	return msg, err
}

// Addr implements transport.Receiver.
func (r *traceReceiver) Addr() string { return r.inner.Addr() }

// Close implements transport.Receiver.
func (r *traceReceiver) Close() error { return r.inner.Close() }

// dataTypes are the bulk field frames; every other type is control traffic.
var dataTypes = []wire.MsgType{wire.TypeData, wire.TypeDataBatch, wire.TypeDataBatchC}

// dataTotals sums the send counters over the bulk field frame types.
func (n *traceNet) dataTotals() (frames, bytes, nanos int64) {
	for _, t := range dataTypes {
		frames += n.sendFrames[t].Load()
		bytes += n.sendBytes[t].Load()
		nanos += n.sendNanos[t].Load()
	}
	return frames, bytes, nanos
}
