package bench

import (
	"fmt"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/netsim"
	"dosgi/internal/services"
	"dosgi/internal/sim"
)

// LoadStats summarizes a generator run.
type LoadStats struct {
	Sent        int64
	OK          int64
	NotFound    int64
	Unavailable int64
	Lost        int64 // no response observed
	Latency     *Histogram
	Elapsed     time.Duration
}

// Throughput returns successful responses per second of virtual time.
func (s LoadStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.OK) / s.Elapsed.Seconds()
}

// The generator's network node and address.
const (
	clientID           = "loadgen"
	clientIP netsim.IP = "10.99.0.1"
)

// GeneratorConfig shapes an open-loop request workload.
type GeneratorConfig struct {
	// Target receives the requests (a service endpoint or an ipvs VIP).
	Target netsim.Addr
	// Rate is requests per second of virtual time.
	Rate float64
	// CPUCost is the service demand each request carries.
	CPUCost time.Duration
	// Jitter adds uniform arrival noise up to the inter-arrival time,
	// using the engine's deterministic RNG.
	Jitter bool
}

// Generator drives an open-loop request stream and measures responses.
type Generator struct {
	eng  *sim.Engine
	net  *netsim.Network
	cfg  GeneratorConfig
	nic  *netsim.NIC
	addr netsim.Addr

	timer   clock.Timer
	nextID  int64
	started time.Duration
	sendAt  map[int64]time.Duration
	stats   LoadStats
}

// NewGenerator attaches a load generator to the network.
func NewGenerator(eng *sim.Engine, net *netsim.Network, cfg GeneratorConfig) (*Generator, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("bench: rate must be positive")
	}
	g := &Generator{
		eng:    eng,
		net:    net,
		cfg:    cfg,
		sendAt: make(map[int64]time.Duration),
	}
	g.stats.Latency = &Histogram{}
	g.nic = net.AttachNode(clientID)
	if _, owned := net.OwnerOf(clientIP); !owned {
		if err := net.AssignIP(clientIP, clientID); err != nil {
			return nil, err
		}
	}
	g.addr = netsim.Addr{IP: clientIP, Port: 45000}
	if err := g.nic.Listen(g.addr, g.onResponse); err != nil {
		return nil, err
	}
	return g, nil
}

// Start begins generating until Stop.
func (g *Generator) Start() {
	g.started = g.eng.Now()
	interval := time.Duration(float64(time.Second) / g.cfg.Rate)
	g.timer = g.eng.Every(interval, func() {
		if g.cfg.Jitter {
			delay := time.Duration(g.eng.Rand().Int63n(int64(interval)))
			g.eng.After(delay, g.sendOne)
			return
		}
		g.sendOne()
	})
}

// Stop halts generation.
func (g *Generator) Stop() {
	if g.timer != nil {
		g.timer.Cancel()
		g.timer = nil
	}
}

// Close releases the generator's network resources.
func (g *Generator) Close() {
	g.Stop()
	g.nic.Close(g.addr)
}

func (g *Generator) sendOne() {
	g.nextID++
	id := g.nextID
	g.sendAt[id] = g.eng.Now()
	g.stats.Sent++
	_ = g.nic.Send(g.addr, g.cfg.Target, services.HTTPRequest{
		ID:      id,
		Path:    "/",
		CPUCost: g.cfg.CPUCost,
	}, 128)
}

func (g *Generator) onResponse(msg netsim.Message) {
	resp, ok := msg.Payload.(services.HTTPResponse)
	if !ok {
		return
	}
	sent, known := g.sendAt[resp.ID]
	if !known {
		return
	}
	delete(g.sendAt, resp.ID)
	switch resp.Status {
	case services.StatusOK:
		g.stats.OK++
		g.stats.Latency.Add(g.eng.Now() - sent)
	case services.StatusNotFound:
		g.stats.NotFound++
	default:
		g.stats.Unavailable++
	}
}

// Stats finalizes and returns the run statistics.
func (g *Generator) Stats() LoadStats {
	out := g.stats
	out.Lost = int64(len(g.sendAt))
	out.Elapsed = g.eng.Now() - g.started
	return out
}
