package remote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
)

// Transport-level errors. Everything wrapping ErrUnavailable is retryable
// against another replica: the call may not have executed.
var (
	// ErrUnavailable is the retryable root: the endpoint did not execute
	// the call.
	ErrUnavailable = errors.New("remote: endpoint unavailable")
	// ErrConnClosed fails calls pending on a closed connection.
	ErrConnClosed = fmt.Errorf("%w: connection closed", ErrUnavailable)
	// ErrTimeout fails calls unanswered within the call timeout.
	ErrTimeout = fmt.Errorf("%w: call timed out", ErrUnavailable)
)

// Retryable reports whether err means the call can safely be retried
// against another replica.
func Retryable(err error) bool { return errors.Is(err, ErrUnavailable) }

// DefaultCallTimeout bounds one call attempt on a connection.
const DefaultCallTimeout = 2 * time.Second

// DefaultBatchDelay is the micro-deadline a batching connection holds a
// partially filled request window before flushing (docs/PROTOCOL.md §2.1):
// long enough to coalesce a burst, far below any latency budget.
const DefaultBatchDelay = 200 * time.Microsecond

// Conn is one pipelined connection to an endpoint: many calls may be in
// flight; responses correlate by id and may complete out of order.
type Conn interface {
	// Call sends req (assigning req.Corr) and invokes cb exactly once with
	// the response or a transport error. A synchronous error means the
	// request was never sent and cb will not fire. The response's strings
	// and byte slices are borrowed from the connection's read buffer and
	// valid only until cb returns; a cb that keeps them calls
	// Response.Retain first (the package doc has the full contract).
	Call(req *Request, cb func(*Response, error)) error
	// InFlight returns the number of outstanding calls.
	InFlight() int
	// Addr returns the dialed endpoint address.
	Addr() string
	// Close tears the connection down, failing outstanding calls with
	// ErrConnClosed.
	Close() error
}

// Transport dials endpoint addresses ("ip:port").
type Transport interface {
	Dial(addr string) (Conn, error)
}

// PushConn is a Conn that can also deliver unsolicited server→client
// request frames (the dosgi.events Notify verb). Both in-repo transports
// implement it; the Subscriber requires it.
type PushConn interface {
	Conn
	// SetPushHandler installs the sink for pushed requests. Install it
	// before the first call that can trigger pushes (Subscribe); a nil or
	// absent handler drops pushed frames.
	SetPushHandler(fn func(*Request))
	// PendingPushes reports how many received push frames are queued
	// ahead of the handler (TCP's serialized push queue; 0 on transports
	// delivering pushes synchronously). Under the dosgi.events credit
	// window this stays bounded even behind a slow consumer.
	PendingPushes() int
}

// BatchConn is a Conn that can coalesce pipelined requests into §2.1
// multi-request frames after negotiating the capability with its peer.
// Both in-repo transports implement it; Pool's WithBatching enables it on
// every connection it dials.
type BatchConn interface {
	Conn
	// EnableBatching opts the connection into coalescing up to max
	// requests per flush, holding a partial window at most delay
	// (DefaultBatchDelay when <= 0). Call before sharing the conn.
	EnableBatching(max int, delay time.Duration)
}

// pendingCall tracks one outstanding request on a connection.
type pendingCall struct {
	cb     func(*Response, error)
	timer  clock.Timer
	sentAt time.Duration // stamped when the frame-RTT histogram is wired
}

// connCore implements correlation-id bookkeeping shared by the netsim and
// TCP connections. The embedding transport provides sendFrame (and
// optionally sendFrames, the vectored multi-buffer flush batching uses).
type connCore struct {
	sched       clock.Scheduler
	callTimeout time.Duration
	sendFrame   func(frame []byte) error
	// sendFrames, when set, writes several frames in one vectored flush
	// wrapped as a single batch frame; nil falls back to
	// sendFrame(EncodeBatch(...)).
	sendFrames func(frames [][]byte) error
	// rtt, when set, records call-issue→response round trips (responses
	// only — timeouts and connection failures are not round trips).
	rtt *obs.Histogram

	mu          sync.Mutex
	nextCorr    uint64
	pending     map[uint64]*pendingCall
	closed      bool
	established bool     // handshake done (netsim); TCP starts established
	backlog     [][]byte // frames queued until established

	// Request batching (docs/PROTOCOL.md §2.1). batchMax > 1 opts the conn
	// in; coalescing starts only once the peer's HelloAck advertised
	// featBatch (peerBatch) — until then, and against old peers forever,
	// every frame goes out individually and semantics are unchanged.
	batchMax   int
	batchDelay time.Duration
	peerBatch  bool
	batch      []batchEntry
	batchBytes int
	batchTimer clock.Timer
}

// batchEntry is one encoded request waiting in the flush window; corr lets
// a failed flush complete exactly the calls it carried.
type batchEntry struct {
	corr  uint64
	frame []byte
}

func newConnCore(sched clock.Scheduler, callTimeout time.Duration, established bool) *connCore {
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	return &connCore{
		sched:       sched,
		callTimeout: callTimeout,
		pending:     make(map[uint64]*pendingCall),
		established: established,
	}
}

func (c *connCore) call(req *Request, cb func(*Response, error)) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrConnClosed
	}
	c.nextCorr++
	corr := c.nextCorr
	req.Corr = corr
	frame, err := EncodeRequest(req)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if len(frame) > MaxFrameSize {
		// Caller error, surfaced synchronously and NOT ErrUnavailable-
		// wrapped: an oversized request must neither condemn the shared
		// connection nor be replayed against other replicas.
		c.mu.Unlock()
		return ErrFrameTooLarge
	}
	pc := &pendingCall{cb: cb}
	if c.rtt != nil {
		pc.sentAt = c.sched.Now()
	}
	c.pending[corr] = pc
	pc.timer = c.sched.After(c.callTimeout, func() { c.complete(corr, nil, ErrTimeout) })
	ready := c.established
	batching := ready && c.batchMax > 1 && c.peerBatch
	var flushNow bool
	var preFlush []batchEntry
	switch {
	case !ready:
		c.backlog = append(c.backlog, frame)
	case batching:
		// Hold the frame in the flush window: a full window flushes now,
		// the first frame of a window arms the micro-deadline. A frame
		// that would push the wrapped batch past MaxFrameSize flushes the
		// queued window first, then starts the next one.
		if len(c.batch) > 0 && c.batchBytes+len(frame)+16 > MaxFrameSize {
			preFlush = c.batch
			c.batch = nil
			c.batchBytes = 0
		}
		c.batch = append(c.batch, batchEntry{corr: corr, frame: frame})
		c.batchBytes += len(frame) + 10
		if len(c.batch) >= c.batchMax {
			flushNow = true
		} else if c.batchTimer == nil {
			c.batchTimer = c.sched.After(c.batchDelay, c.flushBatch)
		}
	}
	c.mu.Unlock()
	if ready && !batching {
		if err := c.sendFrame(frame); err != nil {
			c.complete(corr, nil, fmt.Errorf("%w: %v", ErrUnavailable, err))
		}
	}
	if preFlush != nil {
		c.flushEntries(preFlush)
	}
	if flushNow {
		c.flushBatch()
	}
	return nil
}

// enableBatching opts the connection into request coalescing: up to max
// frames per flush, held at most delay. Takes effect once the peer
// advertises batch support (setPeerFeatures).
func (c *connCore) enableBatching(max int, delay time.Duration) {
	if max < 2 {
		return
	}
	if delay <= 0 {
		delay = DefaultBatchDelay
	}
	c.mu.Lock()
	c.batchMax = max
	c.batchDelay = delay
	c.mu.Unlock()
}

// setPeerFeatures records the capabilities a HelloAck advertised.
func (c *connCore) setPeerFeatures(features byte) {
	c.mu.Lock()
	c.peerBatch = features&featBatch != 0
	c.mu.Unlock()
}

// flushBatch sends the queued window — one wrapped batch frame for several
// requests, a plain frame for a window of one. A flush failure completes
// exactly the calls the window carried.
func (c *connCore) flushBatch() {
	c.mu.Lock()
	if c.batchTimer != nil {
		c.batchTimer.Cancel()
		c.batchTimer = nil
	}
	entries := c.batch
	c.batch = nil
	c.batchBytes = 0
	closed := c.closed
	c.mu.Unlock()
	if len(entries) == 0 || closed {
		return
	}
	c.flushEntries(entries)
}

// flushEntries writes one already-detached window.
func (c *connCore) flushEntries(entries []batchEntry) {
	var err error
	if len(entries) == 1 {
		err = c.sendFrame(entries[0].frame)
	} else {
		frames := make([][]byte, len(entries))
		for i, e := range entries {
			frames[i] = e.frame
		}
		if c.sendFrames != nil {
			err = c.sendFrames(frames)
		} else {
			var wrapped []byte
			if wrapped, err = EncodeBatch(frames); err == nil {
				err = c.sendFrame(wrapped)
			}
		}
	}
	if err != nil {
		for _, e := range entries {
			c.complete(e.corr, nil, fmt.Errorf("%w: %v", ErrUnavailable, err))
		}
	}
}

// establish flushes the backlog once the handshake completes.
func (c *connCore) establish() {
	c.mu.Lock()
	if c.closed || c.established {
		c.mu.Unlock()
		return
	}
	c.established = true
	backlog := c.backlog
	c.backlog = nil
	c.mu.Unlock()
	for _, frame := range backlog {
		_ = c.sendFrame(frame)
	}
}

// onResponse completes the matching pending call.
func (c *connCore) onResponse(resp *Response) {
	c.complete(resp.Corr, resp, nil)
}

// complete finishes one call, exactly once, outside the lock.
func (c *connCore) complete(corr uint64, resp *Response, err error) {
	c.mu.Lock()
	pc, ok := c.pending[corr]
	if ok {
		delete(c.pending, corr)
	}
	c.mu.Unlock()
	if !ok {
		return // duplicate, late or timed-out response
	}
	if pc.timer != nil {
		pc.timer.Cancel()
	}
	if c.rtt != nil && resp != nil {
		c.rtt.Record(c.sched.Now() - pc.sentAt)
	}
	pc.cb(resp, err)
}

// inFlight returns the outstanding call count.
func (c *connCore) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// shutdown marks the core closed and fails every pending call with err.
// It reports whether this call performed the close.
func (c *connCore) shutdown(err error) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	victims := make([]*pendingCall, 0, len(c.pending))
	for corr, pc := range c.pending {
		delete(c.pending, corr)
		victims = append(victims, pc)
	}
	c.backlog = nil
	// Held batch entries die with their pending calls (failed below); the
	// armed micro-deadline would only find an empty window.
	c.batch = nil
	c.batchBytes = 0
	if c.batchTimer != nil {
		c.batchTimer.Cancel()
		c.batchTimer = nil
	}
	c.mu.Unlock()
	for _, pc := range victims {
		if pc.timer != nil {
			pc.timer.Cancel()
		}
		pc.cb(nil, err)
	}
	return true
}
