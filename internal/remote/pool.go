package remote

import (
	"sync"
	"time"

	"dosgi/internal/obs"
)

// Pool defaults.
const (
	DefaultMaxConnsPerEndpoint = 2
	DefaultMaxInFlight         = 32
)

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// WithMaxConnsPerEndpoint caps connections dialed per endpoint.
func WithMaxConnsPerEndpoint(n int) PoolOption {
	return func(p *Pool) {
		if n > 0 {
			p.maxConns = n
		}
	}
}

// WithMaxInFlight caps pipelined calls per connection; excess calls queue
// in the pool until a slot frees.
func WithMaxInFlight(n int) PoolOption {
	return func(p *Pool) {
		if n > 0 {
			p.maxInFlight = n
		}
	}
}

// WithPerCallConns disables pooling: every invocation dials a fresh
// connection and closes it on completion. This is the one-connection-per-
// call baseline experiment E10 compares pipelining against.
func WithPerCallConns() PoolOption {
	return func(p *Pool) { p.perCall = true }
}

// WithPoolObserver records how long each call waited to acquire a
// connection slot into wait (zero for calls routed immediately); now
// supplies timestamps and must share a base with the other instruments on
// the node. Per-call pools (no queue) record nothing.
func WithPoolObserver(now func() time.Duration, wait *obs.Histogram) PoolOption {
	return func(p *Pool) {
		if now != nil && wait != nil {
			p.now, p.waitHist = now, wait
		}
	}
}

// Pool multiplexes invocations over per-endpoint pipelined connections:
// each call picks the least-loaded open connection with a free in-flight
// slot, dials a new one while under the per-endpoint cap, and otherwise
// queues until a response frees a slot.
type Pool struct {
	transport   Transport
	maxConns    int
	maxInFlight int
	perCall     bool
	now         func() time.Duration
	waitHist    *obs.Histogram

	mu      sync.Mutex
	conns   map[string][]Conn
	dialing map[string]int // dials in progress, counted against maxConns
	// load is the pool's own in-flight accounting: a slot is reserved
	// atomically with connection selection, so concurrent Invokes cannot
	// overshoot maxInFlight between observing a conn and calling on it.
	load    map[Conn]int
	waiting map[string][]poolWaiter
	closed  bool
}

type poolWaiter struct {
	req *Request
	cb  func(*Response, error)
	enq time.Duration // enqueue time, meaningful only with waitHist
}

// enqueue builds a waiter, stamping its queue-entry time when observed.
func (p *Pool) enqueue(req *Request, cb func(*Response, error)) poolWaiter {
	w := poolWaiter{req: req, cb: cb}
	if p.waitHist != nil {
		w.enq = p.now()
	}
	return w
}

// NewPool builds a pool over transport.
func NewPool(transport Transport, opts ...PoolOption) *Pool {
	p := &Pool{
		transport:   transport,
		maxConns:    DefaultMaxConnsPerEndpoint,
		maxInFlight: DefaultMaxInFlight,
		conns:       make(map[string][]Conn),
		dialing:     make(map[string]int),
		load:        make(map[Conn]int),
		waiting:     make(map[string][]poolWaiter),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Invoke sends req to addr. cb fires exactly once unless Invoke returns a
// synchronous error. Queued calls that lose their endpoint fail with
// ErrConnClosed (retryable). As with Conn.Call, the response's strings and
// byte slices are valid only until cb returns; Response.Retain detaches
// them.
func (p *Pool) Invoke(addr string, req *Request, cb func(*Response, error)) error {
	if p.perCall {
		conn, err := p.transport.Dial(addr)
		if err != nil {
			return err
		}
		err = conn.Call(req, func(resp *Response, err error) {
			_ = conn.Close()
			cb(resp, err)
		})
		if err != nil {
			_ = conn.Close() // cb never fires on a synchronous error
		}
		return err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrConnClosed
	}
	// FIFO fairness: while earlier calls are queued, new calls join the
	// back of the queue rather than stealing a freshly freed slot.
	if len(p.waiting[addr]) > 0 {
		p.waiting[addr] = append(p.waiting[addr], p.enqueue(req, cb))
		p.mu.Unlock()
		p.drain(addr)
		return nil
	}
	p.mu.Unlock()
	conn, err := p.route(addr)
	if err != nil {
		return err
	}
	if conn == nil {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return ErrConnClosed
		}
		p.waiting[addr] = append(p.waiting[addr], p.enqueue(req, cb))
		p.mu.Unlock()
		// Capacity may have freed between route and the enqueue.
		p.drain(addr)
		return nil
	}
	if p.waitHist != nil {
		p.waitHist.Record(0) // acquired without queueing
	}
	return p.callOn(conn, addr, req, cb)
}

// Call is the blocking form of Invoke: it sends req to addr, waits for the
// completion and returns the response retained, so it stays valid after
// the transport recycles the frame. Never call it from a completion
// callback or a scheduler callback — it would block the goroutine that
// has to deliver the answer.
func (p *Pool) Call(addr string, req *Request) (*Response, error) {
	return Await(func(cb func(*Response, error)) error { return p.Invoke(addr, req, cb) })
}

// Await runs send — a Conn.Call or Pool.Invoke with its request bound —
// and blocks until the completion callback it was handed fires,
// returning the response retained. A synchronous send error is returned
// as is (the callback never fires then).
func Await(send func(cb func(*Response, error)) error) (*Response, error) {
	type outcome struct {
		resp *Response
		err  error
	}
	ch := make(chan outcome, 1)
	if err := send(func(resp *Response, err error) {
		ch <- outcome{resp.Retain(), err} // read after the callback returns
	}); err != nil {
		return nil, err
	}
	o := <-ch
	return o.resp, o.err
}

// bestLocked returns the least-loaded connection with a free in-flight
// slot, or nil. Load is the pool's reservation count, not Conn.InFlight,
// so selection and reservation stay atomic under p.mu.
func (p *Pool) bestLocked(addr string) (Conn, int) {
	var best Conn
	bestLoad := p.maxInFlight
	for _, c := range p.conns[addr] {
		if load := p.load[c]; load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best, bestLoad
}

// release frees one reserved slot of conn.
func (p *Pool) release(conn Conn) {
	p.mu.Lock()
	if n := p.load[conn]; n > 1 {
		p.load[conn] = n - 1
	} else {
		delete(p.load, conn)
	}
	p.mu.Unlock()
}

// route finds or creates capacity for one call and reserves the slot: an
// idle connection, a new connection (dialed OUTSIDE the pool lock — a
// slow TCP dial must not stall calls to healthy endpoints), a busy
// connection with a free pipeline slot, or nil meaning the caller should
// queue.
func (p *Pool) route(addr string) (Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrConnClosed
	}
	best, bestLoad := p.bestLocked(addr)
	if best != nil && bestLoad == 0 {
		p.load[best]++
		p.mu.Unlock()
		return best, nil
	}
	if len(p.conns[addr])+p.dialing[addr] < p.maxConns {
		p.dialing[addr]++
		p.mu.Unlock()
		conn, err := p.transport.Dial(addr)
		p.mu.Lock()
		p.dialing[addr]--
		if p.dialing[addr] == 0 {
			delete(p.dialing, addr)
		}
		if err != nil {
			// Fall back to any surviving connection with a free slot.
			best, bestLoad := p.bestLocked(addr)
			if best != nil && bestLoad < p.maxInFlight {
				p.load[best]++
				p.mu.Unlock()
				return best, nil
			}
			p.mu.Unlock()
			return nil, err
		}
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return nil, ErrConnClosed
		}
		p.conns[addr] = append(p.conns[addr], conn)
		p.load[conn]++
		p.mu.Unlock()
		return conn, nil
	}
	if best != nil {
		p.load[best]++
	}
	p.mu.Unlock()
	return best, nil // nil when every conn is at maxInFlight
}

// callOn issues a call on a connection whose slot route() has already
// reserved; the reservation is released when the call completes (or
// fails synchronously).
func (p *Pool) callOn(conn Conn, addr string, req *Request, cb func(*Response, error)) error {
	err := conn.Call(req, func(resp *Response, err error) {
		p.release(conn)
		if err != nil {
			// Conn-level failure (timeout, closed): retire the connection
			// so queued and future calls re-dial or fail over.
			p.dropConn(addr, conn)
		}
		cb(resp, err)
		p.drain(addr)
	})
	if err != nil {
		p.release(conn)
		// Only a conn-level error condemns the shared connection; a caller
		// error (unencodable argument) must not fail unrelated in-flight
		// calls pipelined on it.
		if Retryable(err) {
			p.dropConn(addr, conn)
		}
		return err
	}
	return nil
}

// drain hands queued calls to freed slots.
func (p *Pool) drain(addr string) {
	for {
		p.mu.Lock()
		if p.closed || len(p.waiting[addr]) == 0 {
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		conn, err := p.route(addr)
		if err != nil {
			// Endpoint gone: fail the whole queue as retryable.
			p.mu.Lock()
			queue := p.waiting[addr]
			delete(p.waiting, addr)
			p.mu.Unlock()
			for _, w := range queue {
				w.cb(nil, err)
			}
			return
		}
		if conn == nil {
			return // no capacity yet; the next completion drains again
		}
		p.mu.Lock()
		queue := p.waiting[addr]
		if len(queue) == 0 {
			p.mu.Unlock()
			p.release(conn) // reserved a slot but another drain won the race
			return
		}
		w := queue[0]
		if len(queue) == 1 {
			delete(p.waiting, addr)
		} else {
			p.waiting[addr] = queue[1:]
		}
		p.mu.Unlock()
		if p.waitHist != nil {
			p.waitHist.Record(p.now() - w.enq)
		}
		if err := p.callOn(conn, addr, w.req, w.cb); err != nil {
			w.cb(nil, err)
		}
	}
}

// dropConn retires one connection of addr.
func (p *Pool) dropConn(addr string, conn Conn) {
	p.mu.Lock()
	conns := p.conns[addr]
	for i, c := range conns {
		if c == conn {
			p.conns[addr] = append(conns[:i], conns[i+1:]...)
			break
		}
	}
	if len(p.conns[addr]) == 0 {
		delete(p.conns, addr)
	}
	delete(p.load, conn)
	p.mu.Unlock()
	_ = conn.Close()
}

// DropEndpoint closes every connection to addr and fails its queued calls
// with ErrConnClosed; the view-change hook calls this for departed nodes.
func (p *Pool) DropEndpoint(addr string) {
	p.mu.Lock()
	conns := p.conns[addr]
	delete(p.conns, addr)
	queue := p.waiting[addr]
	delete(p.waiting, addr)
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, w := range queue {
		w.cb(nil, ErrConnClosed)
	}
}

// ConnCount returns the open connections to addr (tests, metrics).
func (p *Pool) ConnCount(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns[addr])
}

// Close tears the pool down.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var conns []Conn
	for addr, cs := range p.conns {
		conns = append(conns, cs...)
		delete(p.conns, addr)
	}
	var waiters []poolWaiter
	for addr, ws := range p.waiting {
		waiters = append(waiters, ws...)
		delete(p.waiting, addr)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, w := range waiters {
		w.cb(nil, ErrConnClosed)
	}
}
