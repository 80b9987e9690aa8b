package remote

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// Thresholds of the server's per-connection frame writer. None is an
// option: each has one value in use, chosen by the measurements below
// (benchmark/run.sh on the 2-vCPU sandbox, server pinned to one core).
const (
	// writerInlineMax is the largest frame copied into the writer's
	// contiguous buffer; its pooled buffer recycles at enqueue. A small
	// response is tens of bytes, so a burst of them is one plain write.
	// Anything larger — a 64 KiB chunk response — rides the same vectored
	// write by reference: copying it again would cost the bulk path the
	// 7 µs per chunk PR 16 removed.
	writerInlineMax = 4 << 10
	// writerYieldBelow: the writer yields (once) before taking the queue
	// only while fewer bytes than this are queued. call_small queues ~25
	// bytes per response, so sixteen responses stay far below it; one
	// chunk response is far above it and is never delayed.
	writerYieldBelow = 1 << 10
	// writerQueueCap bounds the bytes queued per connection: room for
	// sixteen 64 KiB chunk responses — twice what artifact_fetch keeps in
	// flight per connection, so the bulk path never waits on it (its
	// QueueWaits stay 0) — and small enough that a peer that stops reading
	// pins about a megabyte, not its whole backlog.
	writerQueueCap = 1 << 20
	// writerKeepBuffer is the largest contiguous buffer kept between
	// flushes; one a burst grew past it (up to the cap) is dropped after
	// its write instead of staying with the connection for life.
	writerKeepBuffer = 64 << 10
	// tcpReadBuffer is the bufio.Reader both ends read frames through:
	// header and body of a small frame are one read, and a coalesced burst
	// of responses is one read for all of them. Bodies larger than the
	// buffer are read straight into the pooled frame.
	tcpReadBuffer = 16 << 10
)

// TCPServerStats counts a TCPServer's socket traffic since it started.
// FramesOut/Flushes is the live batch factor of the response path (1 when
// every response is written alone), FramesIn/Reads its read-side twin;
// WorkersStarted grows with connections and with bursts deeper than the
// workers a connection keeps parked, not with the request count.
type TCPServerStats struct {
	Reads          uint64 // read calls on accepted sockets
	FramesIn       uint64 // wire frames received (a §2.1 batch counts once)
	Flushes        uint64 // writes: one per drained queue
	FramesOut      uint64 // wire frames written (responses, acks, pushes)
	Yields         uint64 // flushes that first yielded to runnable handlers
	QueueWaits     uint64 // senders that found a connection's queue full
	QueuedPeak     uint64 // most bytes ever queued on one connection
	WorkersStarted uint64 // dispatch goroutines started (parked ones are reused)
}

// tcpServerCounters is the live form of TCPServerStats, shared by every
// connection of one server.
type tcpServerCounters struct {
	reads, framesIn, flushes, framesOut, yields, queueWaits, queuedPeak atomic.Uint64
	workersStarted                                                      atomic.Uint64
	// framesByRef counts frames written by reference instead of through
	// the contiguous buffer (tests pin the bulk path on it).
	framesByRef atomic.Uint64
}

func (c *tcpServerCounters) snapshot() TCPServerStats {
	return TCPServerStats{
		Reads:          c.reads.Load(),
		FramesIn:       c.framesIn.Load(),
		Flushes:        c.flushes.Load(),
		FramesOut:      c.framesOut.Load(),
		Yields:         c.yields.Load(),
		QueueWaits:     c.queueWaits.Load(),
		QueuedPeak:     c.queuedPeak.Load(),
		WorkersStarted: c.workersStarted.Load(),
	}
}

// countingReader counts the read calls a connection's bufio.Reader makes.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c countingReader) Read(p []byte) (int, error) {
	c.n.Add(1)
	return c.r.Read(p)
}

// refFrame is a queued frame written by reference: it goes on the wire
// after the first `at` bytes of the contiguous buffer.
type refFrame struct {
	at     int
	frame  []byte
	pooled bool // recycle with putFrameBuf once written or dropped
}

// connWriter is the one FIFO frame writer of an accepted connection.
// Responses, the HelloAck and pushes are queued under mu in wire order —
// the connection FIFO is the write-order guarantee of PROTOCOL.md §6.2 —
// and a single goroutine (run) writes everything queued in one Write, or
// one writev when large frames ride along by reference.
//
// Coalescing comes from one conditional yield, not from a deadline: when
// the queue is small and more than one dispatched request has yet to
// reply, run calls runtime.Gosched once before taking the queue. That
// waits for exactly the handlers that are runnable right now — the ones
// about to add a response — and never for a blocked one, so a lone call
// and a bulk response are written as promptly as without it. Measured on
// call_small (2 connections x 16 in flight, one-core server): no yield
// batches nothing on one P, because the readied writer sits in runnext
// and flushes after every handler (+7 % throughput); an unconditional
// yield costs the one-call-per-connection phase +15-23 % p50; this
// conditional one writes ~4.9 responses per flush and gave +57 %
// throughput (10/10 alternating pairs) with p50 and p99 unmoved.
//
// The client side has no writer goroutine and never yields: the same
// yield there cost artifact_fetch 4-9 % throughput, because the yielded
// chunk requests queued behind runnable 64 KiB hash completions while the
// holder idled. It coalesces on an event it can see instead (tcpConn.send):
// while the read loop has started response completions that have not run
// yet, requests queue, and the last of those completions writes them
// before its callback. A lone call, and every request of a push-enabled
// connection, is written at once.
type connWriter struct {
	nc    net.Conn
	stats *tcpServerCounters

	// unreplied counts requests dispatched on this connection whose
	// response is not queued yet.
	unreplied atomic.Int64

	mu   sync.Mutex
	work sync.Cond // run waits here for frames (or the end)
	room sync.Cond // senders wait here while the queue is full
	// buf holds the length prefixes of every queued frame and the bodies
	// of the small ones; refs the large bodies and where they cut in.
	buf      []byte
	refs     []refFrame
	queued   int  // bytes queued: len(buf) + every refs[i].frame
	draining bool // no more senders: write what is queued, then stop
	closed   bool // write failed or writer stopped: senders get ErrConnClosed
}

func newConnWriter(nc net.Conn, stats *tcpServerCounters) *connWriter {
	w := &connWriter{nc: nc, stats: stats}
	w.work.L = &w.mu
	w.room.L = &w.mu
	return w
}

// admit waits, with mu held, until the queue is below its cap — the
// back-pressure a sender used to get from the write mutex. It reports
// false when the connection is gone. The cap is checked on admission, so
// the queue overshoots by at most the frames of one admission.
func (w *connWriter) admit() bool {
	if w.queued >= writerQueueCap && !w.closed {
		w.stats.queueWaits.Add(1)
		for w.queued >= writerQueueCap && !w.closed {
			w.room.Wait()
		}
	}
	return !w.closed
}

// awaitRoom blocks while the queue is full, so a handler does not encode
// a response (and pin its buffer) that cannot be queued yet. It reports
// false when the connection is gone.
func (w *connWriter) awaitRoom() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.admit()
}

// Write appends p to the contiguous buffer. mu is held. It makes the
// writer the io.Writer writeBatchFrame assembles a §2.1 batch into.
func (w *connWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	w.queued += len(p)
	return len(p), nil
}

// appendFrame queues one length-prefixed frame behind everything already
// queued. mu is held and the caller was admitted. A pooled frame belongs
// to the writer from here on (the reply path's encode keeps those within
// MaxFrameSize; the check is for pushes).
func (w *connWriter) appendFrame(frame []byte, pooled bool) error {
	if len(frame) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(frame)))
	w.queued += 4
	if len(frame) <= writerInlineMax {
		_, _ = w.Write(frame)
		if pooled {
			putFrameBuf(frame)
		}
	} else {
		w.refs = append(w.refs, refFrame{at: len(w.buf), frame: frame, pooled: pooled})
		w.queued += len(frame)
		w.stats.framesByRef.Add(1)
	}
	w.queuedFrame()
	return nil
}

// appendBatch queues frames wrapped as one §2.1 batch frame, under the
// same conditions as appendFrame.
func (w *connWriter) appendBatch(frames [][]byte) error {
	if err := writeBatchFrame(w, frames); err != nil {
		return err // too large: rejected before anything was queued
	}
	w.queuedFrame()
	return nil
}

// queuedFrame counts one frame just queued, raises the queued-bytes
// high-water mark and wakes the writer. mu is held.
func (w *connWriter) queuedFrame() {
	w.stats.framesOut.Add(1)
	for q := uint64(w.queued); ; {
		peak := w.stats.queuedPeak.Load()
		if q <= peak || w.stats.queuedPeak.CompareAndSwap(peak, q) {
			break
		}
	}
	w.work.Signal()
}

// enqueue queues one frame the writer does not own (a push, the
// HelloAck), waiting while the queue is full.
func (w *connWriter) enqueue(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.admit() {
		return ErrConnClosed
	}
	return w.appendFrame(frame, false)
}

// drain tells the writer no sender is left: it writes what is queued and
// stops.
func (w *connWriter) drain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
	w.work.Signal()
}

// run is the writer goroutine. It returns once drained or after the
// first write error, with the connection closed, every sender released
// and the pooled buffers of frames still queued returned.
func (w *connWriter) run() {
	var buf []byte // the spare contiguous buffer, swapped in at each flush
	var refs []refFrame
	var iov net.Buffers
	w.mu.Lock()
	for {
		for w.queued == 0 && !w.draining && !w.closed {
			w.work.Wait()
		}
		if w.queued == 0 || w.closed {
			break
		}
		if w.queued < writerYieldBelow && w.unreplied.Load() > 1 {
			w.mu.Unlock()
			w.stats.yields.Add(1)
			runtime.Gosched()
			w.mu.Lock()
		}
		buf, w.buf = w.buf, buf[:0]
		refs, w.refs = w.refs, refs[:0]
		w.queued = 0
		w.mu.Unlock()
		w.room.Broadcast()

		w.stats.flushes.Add(1)
		var err error
		if len(refs) == 0 {
			_, err = w.nc.Write(buf)
		} else {
			iov = iov[:0]
			at := 0
			for _, r := range refs {
				iov = append(iov, buf[at:r.at], r.frame) // buf[at:r.at] holds at least r's length prefix
				at = r.at
			}
			if at < len(buf) {
				iov = append(iov, buf[at:])
			}
			out := iov // WriteTo consumes its receiver (and nils what it wrote)
			_, err = out.WriteTo(w.nc)
		}
		releaseRefs(refs)
		if cap(buf) > writerKeepBuffer {
			buf = nil
		}

		w.mu.Lock()
		if err != nil {
			break
		}
	}
	w.closed = true
	releaseRefs(w.refs)
	w.buf, w.refs, w.queued = nil, nil, 0
	w.mu.Unlock()
	w.room.Broadcast()
	_ = w.nc.Close()
}

// releaseRefs recycles the pooled buffers among refs and drops every
// reference, so a reused slice pins no frame.
func releaseRefs(refs []refFrame) {
	for i, r := range refs {
		if r.pooled {
			putFrameBuf(r.frame)
		}
		refs[i] = refFrame{}
	}
}
