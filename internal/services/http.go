package services

import (
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/ipvs"
	"dosgi/internal/netsim"
	"dosgi/internal/vjvm"
)

// HTTPRequest is the simulated HTTP request carried over netsim. CPUCost
// models the handler's service demand; it is consumed from the owning
// instance's resource domain, so a busy tenant's requests queue behind its
// fair share — the behaviour SLA enforcement acts on.
type HTTPRequest struct {
	ID      int64
	Path    string
	CPUCost time.Duration
	Bytes   int
}

// HTTPResponse answers an HTTPRequest.
type HTTPResponse struct {
	ID     int64
	Path   string
	Status int
	Bytes  int
}

// HTTP status codes used by the simulated service.
const (
	StatusOK          = 200
	StatusNotFound    = 404
	StatusUnavailable = 503
)

// Servlet handles a request after its CPU cost has been consumed and
// returns the response status.
type Servlet func(req HTTPRequest) int

// HTTPStats counts request outcomes.
type HTTPStats struct {
	Served      int64
	NotFound    int64
	Unavailable int64
}

// HTTPService is a per-instance HTTP endpoint: requests arrive on the
// instance's address, consume CPU in the instance's resource domain and
// reply to the caller. It answers ipvs health probes, so instances can sit
// behind a virtual server (Figure 6).
type HTTPService struct {
	sched    clock.Scheduler
	nic      *netsim.NIC
	addr     netsim.Addr
	vm       *vjvm.VJVM
	domainID string

	mu       sync.Mutex
	running  bool
	servlets map[string]Servlet
	stats    HTTPStats
	// onServed observes (request, status, latency) for measurement.
	onServed func(req HTTPRequest, status int, latency time.Duration)
	arrivals map[int64]time.Duration
}

// NewHTTPService builds the service bound to addr, accounting CPU to
// domainID of vm.
func NewHTTPService(sched clock.Scheduler, nic *netsim.NIC, addr netsim.Addr, vm *vjvm.VJVM, domainID string) *HTTPService {
	return &HTTPService{
		sched:    sched,
		nic:      nic,
		addr:     addr,
		vm:       vm,
		domainID: domainID,
		servlets: make(map[string]Servlet),
		arrivals: make(map[int64]time.Duration),
	}
}

// Addr returns the bound address.
func (s *HTTPService) Addr() netsim.Addr { return s.addr }

// OnServed installs a measurement hook.
func (s *HTTPService) OnServed(fn func(req HTTPRequest, status int, latency time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onServed = fn
}

// RegisterServlet maps path to a servlet. A nil servlet answers 200.
func (s *HTTPService) RegisterServlet(path string, servlet Servlet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if servlet == nil {
		servlet = func(HTTPRequest) int { return StatusOK }
	}
	s.servlets[path] = servlet
}

// UnregisterServlet removes a path.
func (s *HTTPService) UnregisterServlet(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.servlets, path)
}

// Start binds the endpoint.
func (s *HTTPService) Start() error {
	if err := s.nic.Listen(s.addr, s.handle); err != nil {
		return err
	}
	s.mu.Lock()
	s.running = true
	s.mu.Unlock()
	return nil
}

// Stop unbinds the endpoint; in-flight requests complete (their domain
// tasks keep running) but replies from a closed port still flow — the
// connection-level teardown is out of model.
func (s *HTTPService) Stop() {
	s.mu.Lock()
	s.running = false
	s.mu.Unlock()
	s.nic.Close(s.addr)
}

// Stats returns a copy of the counters.
func (s *HTTPService) Stats() HTTPStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *HTTPService) handle(msg netsim.Message) {
	// Health probes (from an ipvs director) answer immediately.
	if probe, isProbe := msg.Payload.(ipvs.Probe); isProbe {
		_ = s.nic.Send(s.addr, probe.ReplyTo, ipvs.ProbeReply{Seq: probe.Seq}, 64)
		return
	}
	req, ok := msg.Payload.(HTTPRequest)
	if !ok {
		return
	}
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	servlet, found := s.servlets[req.Path]
	s.arrivals[req.ID] = s.sched.Now()
	s.mu.Unlock()

	if !found {
		s.reply(msg.From, req, StatusNotFound)
		return
	}
	if _, err := s.vm.Submit(s.domainID, req.CPUCost, func(completed bool) {
		if !completed {
			s.reply(msg.From, req, StatusUnavailable)
			return
		}
		status := servlet(req)
		s.reply(msg.From, req, status)
	}); err != nil {
		s.reply(msg.From, req, StatusUnavailable)
	}
}

func (s *HTTPService) reply(to netsim.Addr, req HTTPRequest, status int) {
	s.mu.Lock()
	switch status {
	case StatusOK:
		s.stats.Served++
	case StatusNotFound:
		s.stats.NotFound++
	default:
		s.stats.Unavailable++
	}
	arrival, seen := s.arrivals[req.ID]
	delete(s.arrivals, req.ID)
	hook := s.onServed
	s.mu.Unlock()
	if hook != nil {
		latency := time.Duration(0)
		if seen {
			latency = s.sched.Now() - arrival
		}
		hook(req, status, latency)
	}
	_ = s.nic.Send(s.addr, to, HTTPResponse{ID: req.ID, Path: req.Path, Status: status, Bytes: req.Bytes}, 64+req.Bytes)
}
