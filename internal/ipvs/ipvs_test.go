package ipvs

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

// backend binds an echo server that answers probes and counts requests.
type backend struct {
	addr   netsim.Addr
	served int
}

func newBackend(t *testing.T, eng *sim.Engine, net *netsim.Network, nodeID string, addr netsim.Addr) *backend {
	t.Helper()
	nic, ok := net.NIC(nodeID)
	if !ok {
		nic = net.AttachNode(nodeID)
	}
	b := &backend{addr: addr}
	if err := nic.Listen(addr, func(msg netsim.Message) {
		if p, isProbe := msg.Payload.(Probe); isProbe {
			_ = nic.Send(addr, p.ReplyTo, ProbeReply{Seq: p.Seq}, 64)
			return
		}
		b.served++
		// Echo the payload back to the client.
		_ = nic.Send(addr, msg.From, msg.Payload, 64)
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

type fixture struct {
	eng      *sim.Engine
	net      *netsim.Network
	director *VirtualServer
	backends []*backend
	client   *netsim.NIC
	clientIP netsim.IP
	replies  int
}

func newFixture(t *testing.T, kind SchedulerKind, nBackends int, opts ...Option) *fixture {
	t.Helper()
	eng := sim.New(1)
	net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
	fx := &fixture{eng: eng, net: net, clientIP: "10.0.0.99"}

	// Director node with VIP.
	net.AttachNode("director")
	if err := net.AssignIP("10.0.0.1", "director"); err != nil {
		t.Fatal(err)
	}
	vip := netsim.Addr{IP: "10.0.0.1", Port: 80}
	fx.director = New(eng, net, "director", vip, kind, opts...)

	for i := 0; i < nBackends; i++ {
		node := fmt.Sprintf("server%d", i)
		ip := netsim.IP(fmt.Sprintf("10.0.1.%d", i+1))
		net.AttachNode(node)
		if err := net.AssignIP(ip, node); err != nil {
			t.Fatal(err)
		}
		addr := netsim.Addr{IP: ip, Port: 8080}
		fx.backends = append(fx.backends, newBackend(t, eng, net, node, addr))
		fx.director.AddServer(addr, 1)
	}

	// Client.
	fx.client = net.AttachNode("client")
	if err := net.AssignIP(fx.clientIP, "client"); err != nil {
		t.Fatal(err)
	}
	if err := fx.client.Listen(netsim.Addr{IP: fx.clientIP, Port: 5000}, func(netsim.Message) {
		fx.replies++
	}); err != nil {
		t.Fatal(err)
	}
	if err := fx.director.Start(); err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *fixture) sendRequests(n int) {
	for i := 0; i < n; i++ {
		_ = fx.client.Send(
			netsim.Addr{IP: fx.clientIP, Port: 5000},
			fx.director.VIP(),
			fmt.Sprintf("req-%d", i), 64)
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	fx := newFixture(t, RoundRobin, 3)
	fx.sendRequests(30)
	fx.eng.RunFor(time.Second)
	for i, b := range fx.backends {
		if b.served != 10 {
			t.Errorf("backend %d served %d, want 10", i, b.served)
		}
	}
	if fx.replies != 30 {
		t.Errorf("client got %d replies, want 30 (direct-routing responses)", fx.replies)
	}
	st := fx.director.Stats()
	if st.Forwarded != 30 || st.NoBackend != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWeightedRoundRobin(t *testing.T) {
	fx := newFixture(t, WeightedRoundRobin, 3)
	// Reweight: 3, 2, 1.
	fx.director.AddServer(fx.backends[0].addr, 3)
	fx.director.AddServer(fx.backends[1].addr, 2)
	fx.director.AddServer(fx.backends[2].addr, 1)
	fx.sendRequests(60)
	fx.eng.RunFor(time.Second)
	if fx.backends[0].served != 30 || fx.backends[1].served != 20 || fx.backends[2].served != 10 {
		t.Errorf("served = %d/%d/%d, want 30/20/10",
			fx.backends[0].served, fx.backends[1].served, fx.backends[2].served)
	}
}

func TestSourceHashAffinity(t *testing.T) {
	fx := newFixture(t, SourceHash, 4)
	fx.sendRequests(20)
	fx.eng.RunFor(time.Second)
	nonZero := 0
	for _, b := range fx.backends {
		if b.served == 20 {
			nonZero++
		} else if b.served != 0 {
			t.Errorf("source-hash split traffic from one client: %d", b.served)
		}
	}
	if nonZero != 1 {
		t.Errorf("expected exactly one backend to serve the client, got %d", nonZero)
	}
}

func TestLeastConnections(t *testing.T) {
	fx := newFixture(t, LeastConnections, 2, WithConnTTL(10*time.Second))
	// Saturate backend 0 with 5 tracked connections, then send 5 more:
	// they must all land on backend 1 (0 active).
	fx.sendRequests(1)
	fx.eng.RunFor(10 * time.Millisecond)
	// After 1 request: one backend has 1 active conn. Send 2 more:
	// first goes to the idle one, second to either (tie at 1).
	fx.sendRequests(9)
	fx.eng.RunFor(100 * time.Millisecond)
	diff := fx.backends[0].served - fx.backends[1].served
	if diff < -1 || diff > 1 {
		t.Errorf("least-connections imbalance: %d vs %d", fx.backends[0].served, fx.backends[1].served)
	}
}

func TestNoBackendCounted(t *testing.T) {
	fx := newFixture(t, RoundRobin, 1)
	// Take the only backend's node down and let the probes mark it.
	nic, _ := fx.net.NIC("server0")
	nic.SetUp(false)
	fx.eng.RunFor(time.Second)
	if s := fx.director.Servers(); s[0].Healthy {
		t.Fatalf("backend still healthy after its node went down: %+v", s)
	}
	fx.sendRequests(5)
	fx.eng.RunFor(time.Second)
	st := fx.director.Stats()
	if st.NoBackend != 5 || st.Forwarded != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHealthCheckMarksDownAndUp(t *testing.T) {
	fx := newFixture(t, RoundRobin, 2)
	fx.eng.RunFor(500 * time.Millisecond) // probes flowing, all healthy
	for _, s := range fx.director.Servers() {
		if !s.Healthy {
			t.Fatalf("backend %v unhealthy at start", s.Addr)
		}
	}

	// Kill server0's node.
	nic, _ := fx.net.NIC("server0")
	nic.SetUp(false)
	fx.eng.RunFor(time.Second)
	servers := fx.director.Servers()
	downCount := 0
	for _, s := range servers {
		if !s.Healthy {
			downCount++
		}
	}
	if downCount != 1 {
		t.Fatalf("down backends = %d, want 1 (%+v)", downCount, servers)
	}

	// Traffic only reaches the healthy one.
	before := fx.backends[1].served
	fx.sendRequests(10)
	fx.eng.RunFor(time.Second)
	if fx.backends[1].served-before != 10 {
		t.Errorf("healthy backend served %d of 10", fx.backends[1].served-before)
	}

	// Recovery.
	nic.SetUp(true)
	fx.eng.RunFor(time.Second)
	for _, s := range fx.director.Servers() {
		if !s.Healthy {
			t.Errorf("backend %v did not recover", s.Addr)
		}
	}
}

func TestDirectorFailover(t *testing.T) {
	fx := newFixture(t, RoundRobin, 2)

	// Backup director on its own node, same VIP and backends.
	fx.net.AttachNode("backup")
	if err := fx.net.AssignIP("10.0.0.2", "backup"); err != nil {
		t.Fatal(err)
	}
	backupVS := New(fx.eng, fx.net, "backup", fx.director.VIP(), RoundRobin)
	for _, b := range fx.backends {
		backupVS.AddServer(b.addr, 1)
	}
	tookOver := false
	var tookOverAt time.Duration
	fo := NewFailover(fx.eng, fx.net, backupVS, FailoverConfig{
		OnTakeover: func() {
			tookOver = true
			tookOverAt = fx.eng.Now()
		},
	})
	if err := fo.Start(); err != nil {
		t.Fatal(err)
	}
	fx.eng.RunFor(time.Second)
	if fo.IsActive() {
		t.Fatal("backup took over while active was healthy")
	}

	// Crash the active director node.
	crashAt := fx.eng.Now()
	fx.director.Stop()
	dnic, _ := fx.net.NIC("director")
	dnic.SetUp(false)
	fx.net.ReleaseIP("10.0.0.1") // node dead: address unclaimed

	fx.eng.RunFor(2 * time.Second)
	if !tookOver || !fo.IsActive() {
		t.Fatal("backup never took over")
	}
	takeoverTime := tookOverAt - crashAt
	if takeoverTime > 1500*time.Millisecond {
		t.Fatalf("takeover took %v", takeoverTime)
	}

	// Traffic flows again through the backup.
	before := fx.replies
	fx.sendRequests(6)
	fx.eng.RunFor(time.Second)
	if fx.replies-before != 6 {
		t.Fatalf("replies after failover = %d of 6", fx.replies-before)
	}
	if owner, _ := fx.net.OwnerOf("10.0.0.1"); owner != "backup" {
		t.Fatalf("VIP owner = %s", owner)
	}
}

func TestStopUnbinds(t *testing.T) {
	fx := newFixture(t, RoundRobin, 1)
	fx.director.Stop()
	fx.sendRequests(3)
	fx.eng.RunFor(time.Second)
	if fx.backends[0].served != 0 {
		t.Error("stopped director forwarded traffic")
	}
	// Restartable.
	if err := fx.director.Start(); err != nil {
		t.Fatal(err)
	}
	fx.sendRequests(3)
	fx.eng.RunFor(time.Second)
	if fx.backends[0].served != 3 {
		t.Errorf("served after restart = %d", fx.backends[0].served)
	}
}
