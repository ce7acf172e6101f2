// Package transport provides the asynchronous, buffered messaging layer
// standing in for ZeroMQ (Sec. 4.1.3). Its semantics mirror the properties
// the paper relies on:
//
//   - messages are queued on the sender side and delivered by a background
//     pump, so Send is normally non-blocking;
//   - both sides hold bounded buffers; Send blocks only when *both* the
//     send-side and receive-side buffers are full — the backpressure that
//     suspended the simulations in the 15-node experiment (Sec. 5.3);
//   - per-connection ordering is FIFO (TCP/ZeroMQ guarantee), while
//     messages from different connections interleave arbitrarily;
//   - receivers drain a single inbox regardless of how many clients are
//     connected (PUSH/PULL fan-in).
//
// Two implementations share the Network interface: an in-memory network for
// tests, benchmarks and single-process studies, and a TCP network (package
// net) for real distributed deployments with dynamic connection.
//
// TCP tuning: Options.TCPNoDelay controls the TCP_NODELAY socket option on
// every TCP connection. The default (nil) keeps Go's default of NODELAY
// enabled — each flushed frame goes out immediately, minimizing per-message
// latency. Setting it to false re-enables Nagle coalescing, which can
// reduce packet overhead for floods of small frames at the cost of
// latency; the sender's write pump already batches queued frames per
// flush, so most deployments should keep the default.
package transport

import (
	"errors"
	"time"
)

// Errors returned by senders and receivers.
var (
	// ErrClosed is returned when the endpoint (or its peer) is closed.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTimeout is returned by Recv when no message arrived in time.
	ErrTimeout = errors.New("transport: receive timeout")
)

// Message is one delivered payload.
type Message struct {
	// Payload is the message body. The slice is owned by the receiver;
	// consumers that copy everything out of it (wire.Decode and the
	// DecodeInto variants do) may hand the buffer back with Recycle, and
	// consumers that share it across workers wrap it in a Ref (pool.go).
	Payload []byte
}

// Sender is the client end of a one-way channel (ZeroMQ PUSH-like).
// Implementations are safe for concurrent use.
type Sender interface {
	// Send enqueues one payload. It copies the payload (callers may reuse
	// the slice) and blocks only when both the local queue and the remote
	// inbox are full. It returns ErrClosed once either end is closed.
	Send(payload []byte) error
	// Close flushes queued messages and releases the connection.
	Close() error
}

// QueueProber is implemented by senders that can report how full their local
// send queue is — the client-visible shadow of server-side congestion (a
// slow receiver backs the queue up before Send starts blocking outright).
// Adaptive batching uses it as a local fallback signal when no server
// congestion hints reach the client.
type QueueProber interface {
	// QueueFraction returns the approximate occupancy of the send queue in
	// [0, 1]. It is a racy snapshot: monitoring only.
	QueueFraction() float64
}

// Receiver is the server end (ZeroMQ PULL-like): a single inbox fan-in for
// any number of senders.
type Receiver interface {
	// Recv waits up to timeout for one message. A timeout ≤ 0 waits
	// indefinitely. It returns ErrTimeout or ErrClosed.
	Recv(timeout time.Duration) (Message, error)
	// Addr returns the address peers dial to reach this receiver.
	Addr() string
	// Close shuts the inbox down; blocked senders are released with errors.
	Close() error
}

// Network abstracts endpoint creation so the server, clients and launcher
// run identically in-process and over real sockets.
type Network interface {
	// Listen creates a receiver. hint may be empty ("pick an address") or a
	// concrete address, e.g. "127.0.0.1:0" for TCP.
	Listen(hint string) (Receiver, error)
	// Dial opens a sender towards the receiver at addr.
	Dial(addr string) (Sender, error)
}

// Options sizes the bounded buffers ("buffer sizes can be user controlled",
// Sec. 4.1.3) and carries socket-level tuning.
type Options struct {
	// SendBuffer is the per-sender queue capacity in messages.
	SendBuffer int
	// RecvBuffer is the per-receiver inbox capacity in messages.
	RecvBuffer int
	// TCPNoDelay overrides the TCP_NODELAY socket option on TCP connections
	// (dialed and accepted). nil keeps Go's default (NODELAY on: frames are
	// sent immediately); &false enables Nagle coalescing for many small
	// frames. Ignored by the in-memory network. See the package comment.
	TCPNoDelay *bool
	// SendSockBytes/RecvSockBytes set the kernel socket buffers
	// (SO_SNDBUF/SO_RCVBUF) on every TCP connection, dialed and accepted.
	// 0 keeps the OS default. Sizing them to hold at least one full data
	// frame keeps a simulation's write from stalling mid-frame and lets the
	// kernel absorb a frame ahead of the fold pipeline; ForStudyCodec derives
	// both from the study shape. Ignored by the in-memory network.
	SendSockBytes int
	RecvSockBytes int
	// FrameBufBytes sizes the user-space bufio reader/writer wrapping each
	// TCP connection (0 = 64 KiB). ForStudyCodec sets it so a whole batched data
	// frame is framed with one syscall when it fits the cap.
	FrameBufBytes int
}

// DefaultOptions returns the buffer sizes used when an Options field is 0.
func DefaultOptions() Options {
	return Options{SendBuffer: 64, RecvBuffer: 1024, FrameBufBytes: 1 << 16}
}

// Socket and frame-buffer sizing bounds for ForStudyCodec: at least the Go/bufio
// conventional 64 KiB, at most 8 MiB (4 MiB for user-space frame buffers) so
// a huge partition cannot pin unbounded per-connection memory.
const (
	minSockBytes    = 1 << 16
	maxSockBytes    = 8 << 20
	maxFrameBufSize = 4 << 20
)

// codecFrameDivisor is the planning ratio for codec-negotiated connections:
// the delta-XOR+ZRLE codec measures ~1.7× on full-precision chaotic fields
// and ~3.2× on single-precision-widened ones, so buffer sizing assumes a
// conservative 2× — enough to halve the per-connection memory of a large
// study without risking mid-frame stalls when a field barely compresses
// (the 64 KiB floors still absorb small frames either way).
const codecFrameDivisor = 2

// ForStudyCodec returns Options with the per-connection buffers derived
// from the study shape instead of the Go/OS defaults: one data frame carries
// cells × (p+2) float64 fields per timestep and clients batch batchSteps
// timesteps per frame (wire.DataBatch), so the socket buffers are sized to
// hold a full frame (clamped to [64 KiB, 8 MiB]) and the user-space frame
// buffers to one frame up to 4 MiB. When codec is true the expected frame
// size is divided by the conservative compression ratio the codec
// guarantees on typical fields, shrinking the kernel and user-space buffers
// a codec-negotiated connection pins. cells should be the largest
// per-server-process partition a connection will carry; non-positive inputs
// fall back to 1 (p, batchSteps) or the defaults (cells).
func ForStudyCodec(cells, p, batchSteps int, codec bool) Options {
	opts := DefaultOptions()
	if cells <= 0 {
		return opts
	}
	if p < 1 {
		p = 1
	}
	if batchSteps < 1 {
		batchSteps = 1
	}
	// 8 bytes per float plus a small allowance for headers/cell ranges.
	frame := 8*cells*(p+2)*batchSteps + 4096
	if codec {
		frame = 8*cells*(p+2)*batchSteps/codecFrameDivisor + 4096
	}
	sock := frame
	if sock < minSockBytes {
		sock = minSockBytes
	}
	if sock > maxSockBytes {
		sock = maxSockBytes
	}
	opts.SendSockBytes = sock
	opts.RecvSockBytes = sock
	fb := frame
	if fb < 1<<16 {
		fb = 1 << 16
	}
	if fb > maxFrameBufSize {
		fb = maxFrameBufSize
	}
	opts.FrameBufBytes = fb
	return opts
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.SendBuffer <= 0 {
		o.SendBuffer = d.SendBuffer
	}
	if o.RecvBuffer <= 0 {
		o.RecvBuffer = d.RecvBuffer
	}
	if o.FrameBufBytes <= 0 {
		o.FrameBufBytes = d.FrameBufBytes
	}
	return o
}
