package remote

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// pendingCall tracks one outstanding request on a connection.
type pendingCall struct {
	cb       func(*Response, error)
	deadline time.Duration // issue time + callTimeout, on the conn's clock
}

// connCore implements correlation-id bookkeeping shared by the netsim and
// TCP connections. The embedding transport provides sendFrame.
//
// Call timeouts cost one timer per connection, not one per call. Every
// call records its deadline; the timeout is fixed per connection and the
// clock never runs backwards, so deadlines never decrease in
// correlation-id order and the oldest pending call is always the next to
// expire. The timer is armed only when none is, and completions leave it
// alone. When it fires, expire fails every call past its deadline and
// re-arms for the oldest call still pending, so each call still times out
// at exactly its own deadline.
type connCore struct {
	sched       clock.Scheduler
	callTimeout time.Duration
	sendFrame   func(frame []byte) error
	// rtt, when set, records call-issue→response round trips (responses
	// only — timeouts and connection failures are not round trips).
	rtt *obs.Histogram

	mu          sync.Mutex
	nextCorr    uint64
	pending     map[uint64]pendingCall
	timer       clock.Timer // the deadline timer; nil while none is armed
	closed      bool
	established bool     // handshake done (netsim); TCP starts established
	backlog     [][]byte // frames queued until established
}

func newConnCore(sched clock.Scheduler, callTimeout time.Duration, established bool) *connCore {
	if callTimeout <= 0 {
		callTimeout = DefaultCallTimeout
	}
	return &connCore{
		sched:       sched,
		callTimeout: callTimeout,
		pending:     make(map[uint64]pendingCall),
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
	c.pending[corr] = pendingCall{cb: cb, deadline: c.sched.Now() + c.callTimeout}
	if c.timer == nil {
		c.timer = c.sched.After(c.callTimeout, c.expire)
	}
	ready := c.established
	if !ready {
		c.backlog = append(c.backlog, frame)
	}
	c.mu.Unlock()
	if ready {
		if err := c.sendFrame(frame); err != nil {
			c.complete(corr, nil, fmt.Errorf("%w: %v", ErrUnavailable, err))
		}
	}
	return nil
}

// expire runs when the deadline timer fires: it fails every call past its
// deadline with ErrTimeout, in issue order, and re-arms the timer for the
// oldest call still pending.
func (c *connCore) expire() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	now := c.sched.Now()
	victims, oldest := c.takeLocked(now)
	c.timer = nil
	if oldest != 0 {
		c.timer = c.sched.After(c.pending[oldest].deadline-now, c.expire)
	}
	c.mu.Unlock()
	for _, cb := range victims {
		cb(nil, ErrTimeout)
	}
}

// takeLocked removes every pending call whose deadline is at or before
// due and returns their callbacks in issue (correlation-id) order, with
// the correlation id of the oldest call left pending (0 when none is).
// c.mu is held.
func (c *connCore) takeLocked(due time.Duration) (victims []func(*Response, error), oldest uint64) {
	var corrs []uint64
	for corr, pc := range c.pending {
		if pc.deadline <= due {
			corrs = append(corrs, corr)
		} else if oldest == 0 || corr < oldest {
			oldest = corr
		}
	}
	slices.Sort(corrs)
	victims = make([]func(*Response, error), len(corrs))
	for i, corr := range corrs {
		victims[i] = c.pending[corr].cb
		delete(c.pending, corr)
	}
	return victims, oldest
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
	if c.rtt != nil && resp != nil {
		c.rtt.Record(c.sched.Now() - (pc.deadline - c.callTimeout))
	}
	pc.cb(resp, err)
}

// inFlight returns the outstanding call count.
func (c *connCore) inFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// shutdown marks the core closed and fails every pending call with err,
// in issue order. It reports whether this call performed the close.
func (c *connCore) shutdown(err error) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	victims, _ := c.takeLocked(math.MaxInt64)
	c.backlog = nil
	if c.timer != nil {
		c.timer.Cancel()
		c.timer = nil
	}
	c.mu.Unlock()
	for _, cb := range victims {
		cb(nil, err)
	}
	return true
}
