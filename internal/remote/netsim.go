package remote

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/netsim"
	"dosgi/internal/obs"
)

// ephemeralBase is the first client port a NetsimTransport binds.
const ephemeralBase = 45000

// NetsimOption configures a NetsimTransport.
type NetsimOption func(*NetsimTransport)

// WithNetsimCallTimeout bounds each call attempt (default
// DefaultCallTimeout). Keep it below the GCS failure-detector window so a
// partitioned call fails over before the membership view even changes.
func WithNetsimCallTimeout(d time.Duration) NetsimOption {
	return func(t *NetsimTransport) { t.callTimeout = d }
}

// WithNetsimFrameHistogram records request→response round trips of every
// connection this transport dials into h (simulated time).
func WithNetsimFrameHistogram(h *obs.Histogram) NetsimOption {
	return func(t *NetsimTransport) { t.frameHist = h }
}

// NetsimTransport dials remote endpoints over the simulated fabric. A
// "connection" is a bound ephemeral client port plus a hello/ack handshake
// with the server, so connection setup costs one round trip exactly like
// TCP and a simulated dial is as dear as a real one.
type NetsimTransport struct {
	sched       clock.Scheduler
	nic         *netsim.NIC
	localIP     netsim.IP
	callTimeout time.Duration
	frameHist   *obs.Histogram

	mu       sync.Mutex
	nextPort uint16
}

// NewNetsimTransport builds a transport sending from localIP via nic.
func NewNetsimTransport(sched clock.Scheduler, nic *netsim.NIC, localIP netsim.IP, opts ...NetsimOption) *NetsimTransport {
	t := &NetsimTransport{
		sched:    sched,
		nic:      nic,
		localIP:  localIP,
		nextPort: ephemeralBase,
	}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// ParseAddr splits "ip:port" into a netsim address.
func ParseAddr(addr string) (netsim.Addr, error) {
	idx := strings.LastIndex(addr, ":")
	if idx <= 0 {
		return netsim.Addr{}, fmt.Errorf("remote: bad address %q", addr)
	}
	port, err := strconv.ParseUint(addr[idx+1:], 10, 16)
	if err != nil {
		return netsim.Addr{}, fmt.Errorf("remote: bad port in %q", addr)
	}
	return netsim.Addr{IP: netsim.IP(addr[:idx]), Port: uint16(port)}, nil
}

// Dial implements Transport.
func (t *NetsimTransport) Dial(addr string) (Conn, error) {
	remoteAddr, err := ParseAddr(addr)
	if err != nil {
		return nil, err
	}
	c := &netsimConn{transport: t, addr: addr, remote: remoteAddr}
	c.core = newConnCore(t.sched, t.callTimeout, false)
	c.core.sendFrame = c.send
	c.core.rtt = t.frameHist

	// Bind the next free ephemeral port for responses.
	t.mu.Lock()
	for tries := 0; ; tries++ {
		t.nextPort++
		if t.nextPort == 0 {
			t.nextPort = ephemeralBase
		}
		c.local = netsim.Addr{IP: t.localIP, Port: t.nextPort}
		if err := t.nic.Listen(c.local, c.onMessage); err == nil {
			break
		} else if tries > 1<<16 {
			t.mu.Unlock()
			return nil, fmt.Errorf("%w: no free client port", ErrUnavailable)
		}
	}
	t.mu.Unlock()

	// Handshake: the conn pipelines requests behind the hello and flushes
	// them when the ack arrives.
	if err := t.nic.Send(c.local, c.remote, encodeHello(false), 1); err != nil {
		c.Close()
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return c, nil
}

// netsimConn is one simulated connection.
type netsimConn struct {
	transport *NetsimTransport
	core      *connCore
	addr      string
	local     netsim.Addr
	remote    netsim.Addr

	pushMu sync.Mutex
	pushFn func(*Request)
}

var _ PushConn = (*netsimConn)(nil)

func (c *netsimConn) Call(req *Request, cb func(*Response, error)) error {
	return c.core.call(req, cb)
}

func (c *netsimConn) InFlight() int { return c.core.inFlight() }

func (c *netsimConn) Addr() string { return c.addr }

func (c *netsimConn) Close() error {
	if c.core.shutdown(ErrConnClosed) {
		c.transport.nic.Close(c.local)
	}
	return nil
}

func (c *netsimConn) send(frame []byte) error {
	return c.transport.nic.Send(c.local, c.remote, frame, len(frame))
}

// SetPushHandler implements PushConn.
func (c *netsimConn) SetPushHandler(fn func(*Request)) {
	c.pushMu.Lock()
	c.pushFn = fn
	c.pushMu.Unlock()
}

// PendingPushes implements PushConn: simulated pushes deliver on the
// engine goroutine, so nothing ever queues connection-side.
func (c *netsimConn) PendingPushes() int { return 0 }

func (c *netsimConn) onMessage(msg netsim.Message) {
	frame, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	req, resp, kind, err := decodeClientFrame(frame)
	if err != nil {
		return
	}
	switch kind {
	case frameHelloAck:
		c.core.establish()
	case frameResponse:
		// The response aliases the delivered payload — the server's encode
		// buffer, handed to nobody else. Race builds poison it once the
		// completion chain returns, so a callback that kept a borrowed
		// value fails here exactly as it would off TCP's pooled buffers.
		c.core.onResponse(resp)
		poisonFrame(frame)
	case frameRequest:
		// Server push (dosgi.events Notify). Stays on the engine
		// goroutine for determinism, like every other sim callback.
		c.pushMu.Lock()
		fn := c.pushFn
		c.pushMu.Unlock()
		if fn != nil {
			fn(req)
		}
	}
}

// NetsimServer exposes a Handler on a simulated address.
type NetsimServer struct {
	nic     *netsim.NIC
	addr    netsim.Addr
	handler Handler
	now     func() time.Duration

	mu      sync.Mutex
	running bool
}

// NetsimServerOption configures a NetsimServer.
type NetsimServerOption func(*NetsimServer)

// WithNetsimServerClock stamps each request's arrival time so a traced
// Dispatcher can split queue wait from handler time. Dispatch is
// synchronous on the engine goroutine here, so queue time is ~0 — the
// stamp matters for span start alignment across nodes.
func WithNetsimServerClock(now func() time.Duration) NetsimServerOption {
	return func(s *NetsimServer) { s.now = now }
}

// NewNetsimServer builds a server bound later by Start.
func NewNetsimServer(nic *netsim.NIC, addr netsim.Addr, handler Handler, opts ...NetsimServerOption) *NetsimServer {
	s := &NetsimServer{nic: nic, addr: addr, handler: handler}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// netsimPusher pushes frames back to one client address. It is a value
// type, so two pushers for the same (server, client) pair compare equal
// and a subscription's identity survives across the requests of its
// connection without the server tracking per-client state.
type netsimPusher struct {
	srv *NetsimServer
	to  netsim.Addr
}

func (p netsimPusher) Push(frame []byte) error {
	return p.srv.nic.Send(p.srv.addr, p.to, frame, len(frame))
}

// pusherFor returns the pusher of a client address.
func (s *NetsimServer) pusherFor(from netsim.Addr) Pusher {
	return netsimPusher{srv: s, to: from}
}

// Addr returns the bound address.
func (s *NetsimServer) Addr() netsim.Addr { return s.addr }

// Start binds the service port.
func (s *NetsimServer) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return nil
	}
	if err := s.nic.Listen(s.addr, s.onMessage); err != nil {
		return err
	}
	s.running = true
	return nil
}

// Stop unbinds the service port.
func (s *NetsimServer) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	s.nic.Close(s.addr)
	s.running = false
}

func (s *NetsimServer) onMessage(msg netsim.Message) {
	frame, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	if len(frame) > 0 && frame[0] == frameBatch {
		// §2.1 multi-request frame: unpack and dispatch each inner request
		// in order. A malformed batch is dropped whole, like any other bad
		// frame on the lossy simulated fabric.
		inner, err := DecodeBatch(frame)
		if err != nil {
			return
		}
		for _, f := range inner {
			req, _, kind, err := DecodeFrame(f)
			if err != nil || kind != frameRequest {
				return
			}
			s.serveRequest(req, msg.From)
		}
		return
	}
	req, _, kind, err := DecodeFrame(frame)
	if err != nil {
		return
	}
	switch kind {
	case frameHello:
		// Always advertise batching; pre-§2.1 clients ignore the feature
		// byte and never send batch frames.
		ack := encodeHelloFeatures(true, featBatch)
		_ = s.nic.Send(s.addr, msg.From, ack, len(ack))
	case frameRequest:
		s.serveRequest(req, msg.From)
	}
}

// serveRequest dispatches one request and sends its response back to from.
func (s *NetsimServer) serveRequest(req *Request, from netsim.Addr) {
	if s.now != nil {
		req.MarkReceived(s.now())
	}
	var resp *Response
	if ph, ok := s.handler.(PushHandler); ok {
		resp = ph.ServePush(req, s.pusherFor(from))
	} else {
		resp = s.handler.Serve(req)
	}
	resp.Corr = req.Corr
	out := encodeResponseOrFallback(resp)
	_ = s.nic.Send(s.addr, from, out, len(out))
}
