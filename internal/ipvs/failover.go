package ipvs

import (
	"sync"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/netsim"
)

// The backup probes the active director through the VIP every
// probeInterval and takes over after takeoverAfter consecutive probes go
// unanswered; takeoverDelay models ARP propagation during VIP movement.
const (
	probeInterval = 100 * time.Millisecond
	takeoverAfter = 3
	takeoverDelay = 50 * time.Millisecond
)

// FailoverConfig tunes the active/backup director pair.
type FailoverConfig struct {
	// OnTakeover is invoked once the backup owns the VIP and serves
	// traffic.
	OnTakeover func()
}

// Failover runs a backup director that watches the active one via
// VIP-directed probes and takes the address over when the active stops
// answering — the "fault tolerant IP virtual server" of Figure 6.
type Failover struct {
	sched  clock.Scheduler
	net    *netsim.Network
	backup *VirtualServer
	cfg    FailoverConfig

	mu        sync.Mutex
	running   bool
	active    bool // we became the active director
	misses    int
	lastOKSeq int64
	seq       int64
	timer     clock.Timer
	probeAddr netsim.Addr
}

// NewFailover wires a backup director. The backup's VirtualServer must be
// configured with the same VIP and backends but not started; Failover
// starts it after takeover.
func NewFailover(sched clock.Scheduler, net *netsim.Network, backup *VirtualServer, cfg FailoverConfig) *Failover {
	return &Failover{sched: sched, net: net, backup: backup, cfg: cfg}
}

// Start begins monitoring the active director.
func (f *Failover) Start() error {
	nic, ok := f.net.NIC(f.backup.NodeID())
	if !ok {
		return ErrNoBackends
	}
	ips := nic.OwnedIPs()
	if len(ips) == 0 {
		return netsim.ErrIPNotOwned
	}
	f.mu.Lock()
	f.probeAddr = netsim.Addr{IP: ips[0], Port: f.backup.VIP().Port + 10001}
	probeAddr := f.probeAddr
	f.mu.Unlock()
	if err := nic.Listen(probeAddr, f.handleReply); err != nil {
		return err
	}
	f.mu.Lock()
	f.running = true
	f.timer = f.sched.Every(probeInterval, f.probe)
	f.mu.Unlock()
	return nil
}

// Stop halts monitoring (the backup director keeps serving if it already
// took over).
func (f *Failover) Stop() {
	f.mu.Lock()
	f.running = false
	if f.timer != nil {
		f.timer.Cancel()
		f.timer = nil
	}
	probeAddr := f.probeAddr
	f.mu.Unlock()
	if nic, ok := f.net.NIC(f.backup.NodeID()); ok {
		nic.Close(probeAddr)
	}
}

// IsActive reports whether the backup has taken over.
func (f *Failover) IsActive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.active
}

func (f *Failover) probe() {
	f.mu.Lock()
	if !f.running || f.active {
		f.mu.Unlock()
		return
	}
	f.seq++
	seq := f.seq
	probeAddr := f.probeAddr
	vipAdmin := netsim.Addr{IP: f.backup.VIP().IP, Port: f.backup.VIP().Port + 10000}
	f.mu.Unlock()

	if nic, ok := f.net.NIC(f.backup.NodeID()); ok {
		_ = nic.Send(probeAddr, vipAdmin, Probe{ReplyTo: probeAddr, Seq: seq}, 64)
	}
	f.sched.After(probeInterval/2, func() {
		f.mu.Lock()
		if !f.running || f.active || f.lastOKSeq >= seq {
			f.mu.Unlock()
			return
		}
		f.misses++
		if f.misses < takeoverAfter {
			f.mu.Unlock()
			return
		}
		f.active = true
		f.mu.Unlock()
		f.takeover()
	})
}

func (f *Failover) handleReply(msg netsim.Message) {
	reply, ok := msg.Payload.(ProbeReply)
	if !ok {
		return
	}
	f.mu.Lock()
	if reply.Seq > f.lastOKSeq {
		f.lastOKSeq = reply.Seq
	}
	f.misses = 0
	f.mu.Unlock()
}

func (f *Failover) takeover() {
	vip := f.backup.VIP()
	f.net.MoveIP(vip.IP, f.backup.NodeID(), takeoverDelay, func(err error) {
		if err != nil {
			return
		}
		if err := f.backup.Start(); err != nil {
			return
		}
		if f.cfg.OnTakeover != nil {
			f.cfg.OnTakeover()
		}
	})
}
