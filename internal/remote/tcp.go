package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
)

// writeBatchFrame writes frames wrapped as one §2.1 batch frame without
// copying the bodies into a contiguous buffer: the outer length prefix,
// batch header and per-frame length prefixes interleave with the frame
// bodies in a single vectored flush. Callers serialize.
func writeBatchFrame(w io.Writer, frames [][]byte) error {
	prefixes := make([][]byte, len(frames))
	total := 1
	var scratch [binary.MaxVarintLen64]byte
	total += binary.PutUvarint(scratch[:], uint64(len(frames)))
	for i, f := range frames {
		p := binary.AppendUvarint(nil, uint64(len(f)))
		prefixes[i] = p
		total += len(p) + len(f)
	}
	if total > MaxFrameSize {
		return ErrFrameTooLarge
	}
	head := make([]byte, 4, 4+1+binary.MaxVarintLen64)
	binary.BigEndian.PutUint32(head, uint32(total))
	head = append(head, frameBatch)
	head = binary.AppendUvarint(head, uint64(len(frames)))
	bufs := make(net.Buffers, 0, 1+2*len(frames))
	bufs = append(bufs, head)
	for i, f := range frames {
		bufs = append(bufs, prefixes[i], f)
	}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one length-prefixed frame from r into a pooled buffer;
// the caller returns it with putFrameBuf once the decoded values are dead.
// Both ends pass a bufio.Reader (tcpReadBuffer) over the socket, so frames
// that arrived back to back in one segment cost one read between them.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	frame := getFrameBuf(int(n))
	if _, err := io.ReadFull(r, frame); err != nil {
		putFrameBuf(frame)
		return nil, err
	}
	return frame, nil
}

// TCPOption configures a TCPTransport.
type TCPOption func(*TCPTransport)

// WithTCPCallTimeout bounds each call attempt (default DefaultCallTimeout).
func WithTCPCallTimeout(d time.Duration) TCPOption {
	return func(t *TCPTransport) { t.callTimeout = d }
}

// WithTCPDialTimeout bounds connection establishment (default 3s).
func WithTCPDialTimeout(d time.Duration) TCPOption {
	return func(t *TCPTransport) { t.dialTimeout = d }
}

// WithTCPFrameHistogram records request→response round trips of every
// connection this transport dials into h.
func WithTCPFrameHistogram(h *obs.Histogram) TCPOption {
	return func(t *TCPTransport) { t.frameHist = h }
}

// TCPTransport dials real TCP endpoints with the same framing and
// pipelining semantics as the netsim transport; dosgid uses it.
type TCPTransport struct {
	sched       clock.Scheduler
	callTimeout time.Duration
	dialTimeout time.Duration
	frameHist   *obs.Histogram
}

// NewTCPTransport builds a transport; sched drives call timeouts (pass
// clock.NewReal() in daemons).
func NewTCPTransport(sched clock.Scheduler, opts ...TCPOption) *TCPTransport {
	t := &TCPTransport{sched: sched, dialTimeout: 3 * time.Second}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// detachedScheduler runs timer callbacks on their own goroutine. A call
// timeout's completion chain can re-dial replicas (blocking up to
// dialTimeout each); running that inside clock.Real's serialized callback
// mutex would stall every other timer on the daemon. Only the real-time
// transport detaches — the simulation path must stay on the engine
// goroutine for determinism.
type detachedScheduler struct{ clock.Scheduler }

func (d detachedScheduler) After(delay time.Duration, fn func()) clock.Timer {
	return d.Scheduler.After(delay, func() { go fn() })
}

// Dial implements Transport.
func (t *TCPTransport) Dial(addr string) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, t.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return t.newConn(addr, nc), nil
}

// newConn runs the client protocol over an established connection.
func (t *TCPTransport) newConn(addr string, nc net.Conn) *tcpConn {
	c := &tcpConn{addr: addr, nc: nc, work: make(chan completion)}
	// TCP's own handshake already happened; the conn starts established.
	c.core = newConnCore(detachedScheduler{t.sched}, t.callTimeout, true)
	c.core.sendFrame = c.send
	c.core.rtt = t.frameHist
	go c.readLoop()
	return c
}

// tcpConn is one pipelined TCP connection.
type tcpConn struct {
	core *connCore
	addr string
	nc   net.Conn

	writeMu sync.Mutex
	// wbuf holds request frames, each behind its length prefix, that send
	// queued while completing was non-zero. Guarded by writeMu.
	wbuf []byte
	// completing counts response completions the read loop has started
	// that have not begun to run. The one that brings it to zero writes
	// wbuf before its callback runs.
	completing atomic.Int64
	// work hands a response completion to a completion worker parked on
	// it; parked counts the parked workers, workersStarted every worker
	// ever started. The read loop is the only sender and closes work when
	// it exits, which releases them.
	work           chan completion
	parked         atomic.Int32
	workersStarted atomic.Int64
	pushFn         atomic.Pointer[func(*Request)]
	pushes         serialQueue
	// pushHello is set once the connection advertised featBatch for
	// server→client Notify coalescing (sent with the first push handler,
	// before any Subscribe can ride this connection).
	pushHello atomic.Bool
}

var _ PushConn = (*tcpConn)(nil)

// SetPushHandler implements PushConn. The first handler also advertises
// featBatch to the server: this connection will carry Subscribe verbs, so
// the server may coalesce its Notify pushes into §2.1 batch frames. The
// Hello precedes any Subscribe on the wire; an old server answers a bare
// ack and keeps pushing plain frames.
func (c *tcpConn) SetPushHandler(fn func(*Request)) {
	if fn == nil {
		c.pushFn.Store(nil)
	} else {
		c.pushFn.Store(&fn)
	}
	if c.pushHello.CompareAndSwap(false, true) {
		_ = c.send(encodeHelloFeatures(false, featBatch))
	}
}

// deliverPush hands one pushed request to the push handler, if any.
func (c *tcpConn) deliverPush(req *Request) {
	if fn := c.pushFn.Load(); fn != nil {
		(*fn)(req)
	}
}

// PendingPushes implements PushConn: the depth of the serialized queue
// feeding the push handler. With the dosgi.events credit window this is
// bounded by the window even when the handler blocks.
func (c *tcpConn) PendingPushes() int { return c.pushes.len() }

func (c *tcpConn) Call(req *Request, cb func(*Response, error)) error {
	return c.core.call(req, cb)
}

func (c *tcpConn) InFlight() int { return c.core.inFlight() }

func (c *tcpConn) Addr() string { return c.addr }

func (c *tcpConn) Close() error {
	if c.core.shutdown(ErrConnClosed) {
		return c.nc.Close()
	}
	return nil
}

// send writes one request frame — or, while a response completion is
// about to run, queues it for that completion to write with the requests
// of the completions before it: the callbacks of one burst of responses
// issue their next calls in one write. Nothing waits for the queue to
// fill. A frame queued here is written by a goroutine that is already
// runnable and runs no user code first, and a call made with no
// completion pending, a large frame and a queue reaching writerInlineMax
// are written at once.
func (c *tcpConn) send(frame []byte) error {
	if len(frame) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf, uint32(len(frame)))
	if len(frame) > writerInlineMax {
		return c.flushLocked(frame)
	}
	c.wbuf = append(c.wbuf, frame...)
	if c.completing.Load() > 0 && len(c.wbuf) < writerInlineMax {
		return nil
	}
	return c.flushLocked(nil)
}

// flushLocked writes the queued frames, then tail (a large frame, by
// reference) in the same vectored write. writeMu is held. A failed write
// closes the socket, so the read loop fails every pending call — those
// whose frames were queued here too — with ErrConnClosed.
func (c *tcpConn) flushLocked(tail []byte) error {
	var err error
	switch {
	case tail != nil:
		bufs := net.Buffers{c.wbuf, tail}
		_, err = bufs.WriteTo(c.nc)
	case len(c.wbuf) > 0:
		_, err = c.nc.Write(c.wbuf)
	}
	c.wbuf = c.wbuf[:0]
	if err != nil {
		_ = c.nc.Close()
	}
	return err
}

// startCompletion runs first in every response completion of a
// connection without a push handler. The last one pending writes what
// send queued, before its callback can block.
func (c *tcpConn) startCompletion() {
	if c.completing.Add(-1) > 0 {
		return
	}
	c.writeMu.Lock()
	_ = c.flushLocked(nil) // a failure closed the socket; the read loop reports it
	c.writeMu.Unlock()
}

// completion is one response for a completion worker to complete; the
// response borrows from frame, which is recycled once its callback chain
// returns (the borrow contract on Conn.Call).
type completion struct {
	resp  *Response
	frame []byte
}

// complete completes one response's call and recycles its frame.
func (c *tcpConn) complete(job completion) {
	c.core.onResponse(job.resp)
	putFrameBuf(job.frame)
}

// completionWorker completes responses of a connection without a push
// handler: the one it was started for, then each the read loop hands it
// while it is parked. A fresh goroutine starts at the minimum stack, which
// the callback chain outgrows; a reused worker keeps the stack it grew. A
// worker that finds DefaultMaxInFlight others parked exits instead.
func (c *tcpConn) completionWorker(job completion) {
	for ok := true; ok; {
		c.startCompletion()
		c.complete(job)
		if c.parked.Add(1) > DefaultMaxInFlight {
			c.parked.Add(-1)
			return
		}
		job, ok = <-c.work
		c.parked.Add(-1)
	}
}

func (c *tcpConn) readLoop() {
	defer close(c.work) // the only sender is done: parked workers exit
	br := bufio.NewReaderSize(c.nc, tcpReadBuffer)
	for {
		frame, err := readFrame(br)
		if err != nil {
			if c.core.shutdown(ErrConnClosed) {
				_ = c.nc.Close()
			}
			return
		}
		// A batch frame from the server is a coalesced Notify burst
		// (§6.2): unpack and enqueue each push in order. Inner decodes
		// copy, so the outer buffer recycles immediately; a malformed
		// batch is dropped like any other undecodable frame.
		if len(frame) > 0 && frame[0] == frameBatch {
			inner, berr := DecodeBatch(frame)
			if berr == nil {
				for _, in := range inner {
					req, _, kind, derr := DecodeFrame(in)
					if derr != nil || kind != frameRequest {
						continue
					}
					pushed := req
					c.pushes.enqueue(func() { c.deliverPush(pushed) })
				}
			}
			putFrameBuf(frame)
			continue
		}
		req, resp, kind, err := decodeClientFrame(frame)
		if err != nil {
			putFrameBuf(frame)
			continue
		}
		switch kind {
		case frameHelloAck:
			putFrameBuf(frame)
			c.core.establish()
		case frameResponse:
			// Completions run off the read loop: a completion
			// continuation may dial (pool drain, invoker failover) and
			// block up to the dial timeout, which must not stall
			// response reads for the other calls pipelined on this
			// connection. Pool connections (no push handler) hand each
			// completion to a parked completion worker, or start one when
			// none is parked, so a blocked callback delays no other
			// completion. It is counted in completing from here until it
			// starts, so the calls the callbacks issue share one write
			// (send). Push-enabled connections (event subscriptions)
			// complete through the same serialized queue as pushes,
			// preserving the server's write order between a resync's
			// Notify frames and the Subscribe response — the
			// Subscriber's resync accounting depends on it. A completion
			// there can wait behind a slow push handler, so it is not
			// counted and their requests are written at once.
			job := completion{resp: resp, frame: frame}
			if c.pushFn.Load() != nil {
				c.pushes.enqueue(func() { c.complete(job) })
				continue
			}
			c.completing.Add(1)
			select {
			case c.work <- job:
			default:
				c.workersStarted.Add(1)
				go c.completionWorker(job)
			}
		case frameRequest:
			// Server push (dosgi.events Notify): serialized off the
			// reader so event order is preserved per connection while a
			// slow consumer cannot stall response reads either. Push
			// handlers may retain the request (subscribers do); it was
			// decoded as an owned copy.
			putFrameBuf(frame)
			c.pushes.enqueue(func() { c.deliverPush(req) })
		default:
			putFrameBuf(frame)
		}
	}
}

// serialQueue runs enqueued functions in order on a single lazily started
// worker goroutine (exiting whenever the queue drains).
type serialQueue struct {
	mu      sync.Mutex
	queue   []func()
	running bool
}

// len returns the number of queued (not yet started) functions.
func (q *serialQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

func (q *serialQueue) enqueue(fn func()) {
	q.mu.Lock()
	q.queue = append(q.queue, fn)
	if q.running {
		q.mu.Unlock()
		return
	}
	q.running = true
	q.mu.Unlock()
	go q.run()
}

func (q *serialQueue) run() {
	for {
		q.mu.Lock()
		if len(q.queue) == 0 {
			q.running = false
			q.mu.Unlock()
			return
		}
		fn := q.queue[0]
		q.queue = q.queue[1:]
		q.mu.Unlock()
		fn()
	}
}

// TCPServer serves a Handler on a TCP listener. Requests on one
// connection dispatch concurrently and responses interleave in completion
// order — the pipelining contract of the protocol. Everything a connection
// sends goes through its connWriter.
type TCPServer struct {
	ln      net.Listener
	handler Handler
	now     func() time.Duration
	stats   tcpServerCounters

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// serverKeepIdle is how many dispatch workers one connection keeps parked
// between requests: the in-flight window of one default pool connection.
// A deeper burst starts more workers, which exit after replying.
const serverKeepIdle = DefaultMaxInFlight

// TCPServerOption configures a TCPServer.
type TCPServerOption func(*TCPServer)

// WithTCPServerClock stamps each request's arrival time (at frame decode,
// before the dispatch goroutine is scheduled) so a traced Dispatcher can
// split queue wait from handler time. Use the same clock base as the
// node's tracer.
func WithTCPServerClock(now func() time.Duration) TCPServerOption {
	return func(s *TCPServer) { s.now = now }
}

// ServeTCP starts accepting on ln; it returns immediately.
func ServeTCP(ln net.Listener, handler Handler, opts ...TCPServerOption) *TCPServer {
	s := &TCPServer{ln: ln, handler: handler, conns: make(map[net.Conn]struct{})}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// Stats returns the server's socket counters, summed over every
// connection it has served.
func (s *TCPServer) Stats() TCPServerStats { return s.stats.snapshot() }

// Close stops the listener and every open connection.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// Server→client push coalescing (docs/PROTOCOL.md §6.2): broker Notify
// bursts — a resync snapshot, a credit-window resume, a replay — queue on
// the pusher and flush as one §2.1 batch frame once the window fills or
// the micro-deadline lapses, whichever is first. The deadline is far below
// perceptible event latency but long enough to catch a same-instant burst.
const (
	pushBatchMax   = 32
	pushFlushDelay = 200 * time.Microsecond
)

// tcpPusher pushes frames to one accepted connection through its
// connWriter, the queue the response path uses, so frames never
// interleave. When the client's Hello advertised featBatch, queued pushes
// coalesce into batch frames; for older clients every push goes out plain.
type tcpPusher struct {
	w *connWriter

	mu       sync.Mutex
	batching bool
	pending  [][]byte
	timer    *time.Timer
	err      error // sticky first flush error, reported to later Pushes
}

func (p *tcpPusher) enableBatching() {
	p.mu.Lock()
	p.batching = true
	p.mu.Unlock()
}

func (p *tcpPusher) Push(frame []byte) error {
	p.mu.Lock()
	if !p.batching {
		p.mu.Unlock()
		return p.w.enqueue(frame)
	}
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	p.pending = append(p.pending, frame)
	full := len(p.pending) >= pushBatchMax
	if !full && p.timer == nil {
		p.timer = time.AfterFunc(pushFlushDelay, p.flush)
	}
	p.mu.Unlock()
	if full {
		p.flush()
	}
	return nil
}

func (p *tcpPusher) flush() {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	p.w.admit()
	p.flushLocked()
}

// flushLocked moves the pending pushes into the connection's queue, with
// the writer's mutex held and after admit (no wait falls between taking
// the pushes and queueing them). The response path calls it before it
// queues every reply, so Notify frames pushed ahead of a response never
// reorder behind it — the Subscriber's resync accounting depends on the
// server's write order between a resync's Notify frames and the Subscribe
// response.
func (p *tcpPusher) flushLocked() {
	p.mu.Lock()
	frames := p.pending
	p.pending = nil
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.mu.Unlock()
	var err error
	switch {
	case len(frames) == 0:
		return
	case p.w.closed:
		err = ErrConnClosed
	case len(frames) == 1:
		err = p.w.appendFrame(frames[0], false)
	default:
		err = p.w.appendBatch(frames)
	}
	if err != nil {
		p.mu.Lock()
		if p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	}
}

// stop cancels a pending micro-deadline flush (connection teardown).
func (p *tcpPusher) stop() {
	p.mu.Lock()
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.pending = nil
	p.mu.Unlock()
}

func (s *TCPServer) serveConn(nc net.Conn) {
	defer s.wg.Done()
	w := newConnWriter(nc, &s.stats)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.run() // returns with nc closed
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	pusher := &tcpPusher{w: w}
	var dispatch, workers sync.WaitGroup
	work := make(chan *Request) // to a parked dispatch worker
	defer func() {
		// Running handlers still queue their responses; the writer sends
		// them, then closes the connection. A failed write or Close has
		// already released every sender and ended the writer instead.
		dispatch.Wait()
		close(work) // the read loop, its only sender, is done: parked workers exit
		workers.Wait()
		pusher.stop()
		w.drain()
	}()
	reply := func(resp *Response) {
		// The response is encoded only once the queue has room, into a
		// pooled buffer the writer recycles: a peer that stops reading
		// blocks its handlers here, holding no frames.
		if !w.awaitRoom() {
			return
		}
		out := encodePooledResponseOrFallback(resp)
		w.mu.Lock()
		defer w.mu.Unlock()
		w.unreplied.Add(-1)
		if !w.admit() {
			putFrameBuf(out)
			return
		}
		pusher.flushLocked()
		_ = w.appendFrame(out, true)
	}
	ph, pushes := s.handler.(PushHandler)
	serve := func(req *Request) {
		defer dispatch.Done()
		var resp *Response
		if pushes {
			resp = ph.ServePush(req, pusher)
		} else {
			resp = s.handler.Serve(req)
		}
		resp.Corr = req.Corr
		reply(resp)
	}
	// Dispatch workers outlive one request. A fresh goroutine starts at the
	// minimum stack, which reflective dispatch outgrows: a goroutine per
	// request would copy its stack on every request, while a reused worker
	// keeps the stack it grew. A request goes to a worker parked on work when one is
	// waiting and starts a new one otherwise, so a blocked handler never
	// delays another request. A worker that has replied parks again, unless
	// serverKeepIdle others already are.
	var parked atomic.Int32
	worker := func(req *Request) {
		defer workers.Done()
		for ok := true; ok; {
			serve(req)
			if parked.Add(1) > serverKeepIdle {
				parked.Add(-1)
				return
			}
			req, ok = <-work
			parked.Add(-1)
		}
	}
	dispatchReq := func(req *Request) {
		select {
		case work <- req:
		default:
			s.stats.workersStarted.Add(1)
			workers.Add(1)
			go worker(req)
		}
	}
	br := bufio.NewReaderSize(countingReader{nc, &s.stats.reads}, tcpReadBuffer)
	for {
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		s.stats.framesIn.Add(1)
		// A batch frame (§2.1) unpacks into individual dispatches; it is
		// peeked before DecodeFrame so pre-batching decode semantics —
		// including "unknown kind drops the connection" on old servers —
		// stay byte-identical for every other frame.
		if len(frame) > 0 && frame[0] == frameBatch {
			inner, err := DecodeBatch(frame)
			if err != nil {
				putFrameBuf(frame)
				return // malformed batch: drop the connection (§7)
			}
			reqs := make([]*Request, 0, len(inner))
			for _, in := range inner {
				req, _, kind, err := DecodeFrame(in)
				if err != nil || kind != frameRequest {
					putFrameBuf(frame)
					return
				}
				// Receive stamps land at decode, before the dispatch
				// goroutines are scheduled, same as unbatched requests.
				if s.now != nil {
					req.MarkReceived(s.now())
				}
				reqs = append(reqs, req)
			}
			putFrameBuf(frame) // inner decodes copied; outer is dead
			dispatch.Add(len(reqs))
			w.unreplied.Add(int64(len(reqs)))
			for _, req := range reqs {
				dispatchReq(req)
			}
			continue
		}
		req, _, kind, err := DecodeFrame(frame)
		if err != nil {
			putFrameBuf(frame)
			return
		}
		var clientFeats byte
		if kind == frameHello {
			clientFeats = helloFeatures(frame)
		}
		putFrameBuf(frame) // request values are copied out by DecodeFrame
		switch kind {
		case frameHello:
			// Acks always advertise this server's features; old clients
			// ignore the trailing byte. A client advertising featBatch has
			// opted into coalesced Notify pushes on this connection.
			if clientFeats&featBatch != 0 {
				pusher.enableBatching()
			}
			_ = w.enqueue(encodeHelloFeatures(true, featBatch))
		case frameRequest:
			if s.now != nil {
				req.MarkReceived(s.now())
			}
			dispatch.Add(1)
			w.unreplied.Add(1)
			dispatchReq(req)
		}
	}
}
