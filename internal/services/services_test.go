package services

import (
	"testing"
	"time"

	"dosgi/internal/ipvs"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/sim"
	"dosgi/internal/vjvm"
)

func TestLogService(t *testing.T) {
	eng := sim.New(1)
	log := NewLogService(eng, 3)
	var seen []LogEntry
	log.AddListener(func(e LogEntry) { seen = append(seen, e) })

	log.Log(LogInfo, "bundleA", "hello %d", 1)
	eng.RunFor(time.Second)
	log.Log(LogError, "bundleB", "oops")

	entries := log.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Message != "hello 1" || entries[0].Level != LogInfo {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].Time != time.Second {
		t.Fatalf("entry 1 time = %v", entries[1].Time)
	}
	if len(seen) != 2 {
		t.Fatalf("listener saw %d", len(seen))
	}

	// Capacity bound.
	for i := 0; i < 5; i++ {
		log.Log(LogDebug, "x", "fill")
	}
	if log.Count() != 3 {
		t.Fatalf("count = %d, want capacity 3", log.Count())
	}
}

func TestLogBundle(t *testing.T) {
	eng := sim.New(1)
	defs := module.NewDefinitionRegistry()
	defs.MustAdd("loc:log", LogBundleDefinition(eng))
	f := module.New(module.WithDefinitions(defs))
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	b, err := f.InstallBundle("loc:log")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	ref, ok := f.SystemContext().ServiceReference(LogServiceClass)
	if !ok {
		t.Fatal("log service not registered")
	}
	svc, err := f.SystemContext().GetService(ref)
	if err != nil {
		t.Fatal(err)
	}
	svc.(*LogService).Log(LogInfo, "test", "works")
	if svc.(*LogService).Count() != 1 {
		t.Fatal("log did not record")
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.SystemContext().ServiceReference(LogServiceClass); ok {
		t.Fatal("log service survived bundle stop")
	}
}

type httpFixture struct {
	eng    *sim.Engine
	net    *netsim.Network
	vm     *vjvm.VJVM
	svc    *HTTPService
	client *netsim.NIC
	resps  []HTTPResponse
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	eng := sim.New(1)
	net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
	vm := vjvm.New(eng, vjvm.WithCapacity(1000))
	if _, err := vm.CreateDomain("tenant"); err != nil {
		t.Fatal(err)
	}

	net.AttachNode("server")
	if err := net.AssignIP("10.0.0.1", "server"); err != nil {
		t.Fatal(err)
	}
	nic, _ := net.NIC("server")
	svc := NewHTTPService(eng, nic, netsim.Addr{IP: "10.0.0.1", Port: 80}, vm, "tenant")

	client := net.AttachNode("client")
	if err := net.AssignIP("10.0.0.9", "client"); err != nil {
		t.Fatal(err)
	}
	fx := &httpFixture{eng: eng, net: net, vm: vm, svc: svc, client: client}
	if err := client.Listen(netsim.Addr{IP: "10.0.0.9", Port: 5000}, func(m netsim.Message) {
		if resp, ok := m.Payload.(HTTPResponse); ok {
			fx.resps = append(fx.resps, resp)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *httpFixture) send(req HTTPRequest) {
	_ = fx.client.Send(netsim.Addr{IP: "10.0.0.9", Port: 5000}, fx.svc.Addr(), req, 64)
}

func TestHTTPServiceServesWithCPUCost(t *testing.T) {
	fx := newHTTPFixture(t)
	fx.svc.RegisterServlet("/api", nil)
	if err := fx.svc.Start(); err != nil {
		t.Fatal(err)
	}
	fx.send(HTTPRequest{ID: 1, Path: "/api", CPUCost: 50 * time.Millisecond})
	fx.eng.Run()
	if len(fx.resps) != 1 || fx.resps[0].Status != StatusOK {
		t.Fatalf("resps = %+v", fx.resps)
	}
	// 1ms there + 50ms service + 1ms back.
	if got := fx.eng.Now(); got != 52*time.Millisecond {
		t.Fatalf("end-to-end = %v, want 52ms", got)
	}
	d, _ := fx.vm.Domain("tenant")
	if cpu := d.CPUTime(); cpu != 50*time.Millisecond {
		t.Fatalf("domain CPU = %v", cpu)
	}
	if st := fx.svc.Stats(); st.Served != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHTTPServiceNotFound(t *testing.T) {
	fx := newHTTPFixture(t)
	if err := fx.svc.Start(); err != nil {
		t.Fatal(err)
	}
	fx.send(HTTPRequest{ID: 1, Path: "/missing", CPUCost: time.Millisecond})
	fx.eng.Run()
	if len(fx.resps) != 1 || fx.resps[0].Status != StatusNotFound {
		t.Fatalf("resps = %+v", fx.resps)
	}
	// 404s burn no tenant CPU.
	d, _ := fx.vm.Domain("tenant")
	if d.CPUTime() != 0 {
		t.Fatal("not-found consumed CPU")
	}
}

func TestHTTPServiceQueueingUnderLoad(t *testing.T) {
	fx := newHTTPFixture(t)
	fx.svc.RegisterServlet("/api", nil)
	var latencies []time.Duration
	fx.svc.OnServed(func(_ HTTPRequest, _ int, l time.Duration) { latencies = append(latencies, l) })
	if err := fx.svc.Start(); err != nil {
		t.Fatal(err)
	}
	// Two concurrent 50ms requests on a 1-core domain: both finish at
	// ~100ms (processor sharing).
	fx.send(HTTPRequest{ID: 1, Path: "/api", CPUCost: 50 * time.Millisecond})
	fx.send(HTTPRequest{ID: 2, Path: "/api", CPUCost: 50 * time.Millisecond})
	fx.eng.Run()
	if len(latencies) != 2 {
		t.Fatalf("latencies = %v", latencies)
	}
	for _, l := range latencies {
		if l < 99*time.Millisecond || l > 101*time.Millisecond {
			t.Fatalf("latency = %v, want ~100ms under contention", l)
		}
	}
}

func TestHTTPServiceAnswersIpvsProbes(t *testing.T) {
	fx := newHTTPFixture(t)
	if err := fx.svc.Start(); err != nil {
		t.Fatal(err)
	}
	var probeReplies int
	if err := fx.client.Listen(netsim.Addr{IP: "10.0.0.9", Port: 6000}, func(m netsim.Message) {
		if _, ok := m.Payload.(ipvs.ProbeReply); ok {
			probeReplies++
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = fx.client.Send(netsim.Addr{IP: "10.0.0.9", Port: 6000}, fx.svc.Addr(),
		ipvs.Probe{ReplyTo: netsim.Addr{IP: "10.0.0.9", Port: 6000}, Seq: 1}, 64)
	fx.eng.Run()
	if probeReplies != 1 {
		t.Fatalf("probe replies = %d", probeReplies)
	}
}

func TestHTTPServiceUnavailableWhenDomainGone(t *testing.T) {
	fx := newHTTPFixture(t)
	fx.svc.RegisterServlet("/api", nil)
	if err := fx.svc.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fx.vm.RemoveDomain("tenant"); err != nil {
		t.Fatal(err)
	}
	fx.send(HTTPRequest{ID: 1, Path: "/api", CPUCost: time.Millisecond})
	fx.eng.Run()
	if len(fx.resps) != 1 || fx.resps[0].Status != StatusUnavailable {
		t.Fatalf("resps = %+v", fx.resps)
	}
}

func TestMetricsService(t *testing.T) {
	m := NewMetricsService()
	m.RegisterProvider("node", func() map[string]any {
		return map[string]any{"cpu": 42}
	})
	attrs, ok := m.Read("node")
	if !ok || attrs["cpu"] != 42 {
		t.Fatalf("Read = %v, %v", attrs, ok)
	}
	if _, ok := m.Read("missing"); ok {
		t.Fatal("missing provider read")
	}
	snap := m.Snapshot()
	if len(snap) != 1 || snap["node"]["cpu"] != 42 {
		t.Fatalf("snapshot = %v", snap)
	}
	m.UnregisterProvider("node")
	if len(m.Names()) != 0 {
		t.Fatal("unregister failed")
	}
}

func TestMetricsBundle(t *testing.T) {
	defs := module.NewDefinitionRegistry()
	svc := NewMetricsService()
	defs.MustAdd("loc:metrics", MetricsBundleDefinition(svc))
	f := module.New(module.WithName("host"), module.WithDefinitions(defs))
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	b, err := f.InstallBundle("loc:metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	attrs, ok := svc.Read("framework:host")
	if !ok {
		t.Fatal("framework provider missing")
	}
	if attrs["bundles"].(int) < 2 {
		t.Fatalf("attrs = %v", attrs)
	}
	if _, ok := f.SystemContext().ServiceReference(MetricsServiceClass); !ok {
		t.Fatal("metrics service not registered")
	}
}
