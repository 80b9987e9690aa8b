package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/services"
	"dosgi/internal/sla"
)

// newCluster builds a cluster of n nodes with a tenant bundle registered.
func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c := New(1)
	c.Definitions().MustAdd("app:shop", &module.Definition{
		ManifestText: `Bundle-SymbolicName: com.shop
Bundle-Version: 1.0.0
`,
		Classes: map[string]any{"com.shop.Main": "shop-main"},
	})
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(NodeConfig{ID: fmt.Sprintf("node%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(2 * time.Second)
	return c
}

func tenant(id string, endpointIP string, port uint16) core.Descriptor {
	d := core.Descriptor{
		ID:             core.InstanceID(id),
		Customer:       "customer-" + id,
		Bundles:        []core.BundleSpec{{Location: "app:shop", Start: true}},
		SharedServices: []string{services.LogServiceClass},
		Resources: core.ResourceSpec{
			CPUMillicores: 1000,
			MemoryBytes:   256 << 20,
			Weight:        1,
			Priority:      1,
		},
	}
	if endpointIP != "" {
		d.Endpoints = []core.Endpoint{{IP: endpointIP, Port: port, Service: "http"}}
	}
	return d
}

func TestDeployAndServe(t *testing.T) {
	c := newCluster(t, 2)
	if err := c.Deploy("node00", tenant("shop-a", "10.1.0.1", 80)); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)

	node, inst, ok := c.FindInstance("shop-a")
	if !ok || node.ID() != "node00" {
		t.Fatalf("FindInstance: %v, %v", node, ok)
	}
	if inst.State() != core.InstanceRunning {
		t.Fatalf("state = %v", inst.State())
	}
	// The endpoint IP belongs to the hosting node.
	if owner, _ := c.Network().OwnerOf("10.1.0.1"); owner != "node00" {
		t.Fatalf("endpoint owner = %s", owner)
	}
	// The shared log service is mirrored into the instance (Figure 4).
	child := inst.Virtual().Framework()
	if _, ok := child.SystemContext().ServiceReference(services.LogServiceClass); !ok {
		t.Fatal("log service not shared into instance")
	}

	// Serve a request end to end.
	client := c.Network().AttachNode("client")
	if err := c.Network().AssignIP("10.9.9.9", "client"); err != nil {
		t.Fatal(err)
	}
	responses := 0
	if err := client.Listen(netsim.Addr{IP: "10.9.9.9", Port: 500}, func(m netsim.Message) {
		if resp, isResp := m.Payload.(services.HTTPResponse); isResp && resp.Status == services.StatusOK {
			responses++
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = client.Send(netsim.Addr{IP: "10.9.9.9", Port: 500}, netsim.Addr{IP: "10.1.0.1", Port: 80},
		services.HTTPRequest{ID: 1, Path: "/", CPUCost: 10 * time.Millisecond}, 64)
	c.Settle(time.Second)
	if responses != 1 {
		t.Fatalf("responses = %d", responses)
	}
	// The request's CPU was accounted to the instance's domain.
	d, ok := node.VM().Domain(domainID("shop-a"))
	if !ok {
		t.Fatal("domain missing")
	}
	if cpu := d.CPUTime(); cpu != 10*time.Millisecond {
		t.Fatalf("domain CPU = %v", cpu)
	}
}

func TestResourceDomainLifecycle(t *testing.T) {
	c := newCluster(t, 1)
	if err := c.Deploy("node00", tenant("shop-a", "", 0)); err != nil {
		t.Fatal(err)
	}
	node, _ := c.Node("node00")
	if _, ok := node.VM().Domain(domainID("shop-a")); !ok {
		t.Fatal("domain not created")
	}
	if err := node.Manager().Destroy("shop-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := node.VM().Domain(domainID("shop-a")); ok {
		t.Fatal("domain not removed on destroy")
	}
}

func TestCrashFailover(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.Deploy("node01", tenant("shop-a", "10.1.0.1", 80)); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)

	if err := c.Crash("node01"); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)

	node, inst, ok := c.FindInstance("shop-a")
	if !ok {
		t.Fatal("instance lost after crash")
	}
	if node.ID() == "node01" {
		t.Fatal("instance still on crashed node")
	}
	if inst.State() != core.InstanceRunning {
		t.Fatalf("state = %v", inst.State())
	}
	// The endpoint IP followed the instance (Figure 5).
	if owner, _ := c.Network().OwnerOf("10.1.0.1"); owner != node.ID() {
		t.Fatalf("endpoint owner = %s, want %s", owner, node.ID())
	}
	// Downtime was recorded and bounded.
	down := c.Tracker().Downtime("shop-a", c.Now())
	if down <= 0 || down > 2*time.Second {
		t.Fatalf("downtime = %v", down)
	}
}

func TestGracefulPowerOff(t *testing.T) {
	c := newCluster(t, 2)
	if err := c.Deploy("node00", tenant("shop-a", "", 0)); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	done := false
	if err := c.PowerOff("node00", func() { done = true }); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)
	if !done {
		t.Fatal("power off never completed")
	}
	n0, _ := c.Node("node00")
	if n0.Powered() {
		t.Fatal("node still powered")
	}
	node, _, ok := c.FindInstance("shop-a")
	if !ok || node.ID() != "node01" {
		t.Fatalf("instance after drain: ok=%v node=%v", ok, node)
	}
	if got := c.PoweredNodes(); len(got) != 1 || got[0] != "node01" {
		t.Fatalf("powered = %v", got)
	}
}

func TestAutonomicThrottleIntegration(t *testing.T) {
	c := newCluster(t, 1)
	if err := c.Deploy("node00", tenant("hog", "", 0)); err != nil {
		t.Fatal(err)
	}
	// SLA: 500mc; domain allows 1000mc until throttled.
	c.SetAgreement("hog", slaAgreement(500))
	node, _ := c.Node("node00")
	d, _ := node.VM().Domain(domainID("hog"))
	d.SetCPULimit(0) // uncapped before enforcement

	eng, err := c.NewAutonomicEngine(`
when instance.cpu.rate > instance.sla.cpu for 200ms {
    recordViolation()
    throttle(instance.sla.cpu)
}
`, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()

	// Generate sustained load: 4 long tasks.
	for i := 0; i < 4; i++ {
		if _, err := node.VM().Submit(domainID("hog"), 10*time.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(time.Second)
	if got := d.CPULimit(); got != 500 {
		t.Fatalf("CPU limit after enforcement = %d, want 500", got)
	}
	if c.Tracker().TotalViolations() == 0 {
		t.Fatal("violation not recorded")
	}
}

func TestAutonomicMigrateIntegration(t *testing.T) {
	c := newCluster(t, 2)
	if err := c.Deploy("node00", tenant("mover", "", 0)); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	eng, err := c.NewAutonomicEngine(`
when instance.tasks > 2 for 100ms {
    migrateAway()
}
`, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()

	node, _ := c.Node("node00")
	for i := 0; i < 4; i++ {
		if _, err := node.VM().Submit(domainID("mover"), 30*time.Second, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(2 * time.Second)
	home, _, ok := c.FindInstance("mover")
	if !ok {
		t.Fatal("instance lost")
	}
	if home.ID() != "node01" {
		t.Fatalf("instance on %s, want node01 after autonomic migration", home.ID())
	}
}

func TestSharedBaseServicesAcrossInstances(t *testing.T) {
	c := newCluster(t, 1)
	for i := 0; i < 3; i++ {
		if err := c.Deploy("node00", tenant(fmt.Sprintf("t%d", i), "", 0)); err != nil {
			t.Fatal(err)
		}
	}
	node, _ := c.Node("node00")
	// One log service instance serves all three tenants.
	var logs []any
	for i := 0; i < 3; i++ {
		_, inst, _ := c.FindInstance(core.InstanceID(fmt.Sprintf("t%d", i)))
		ctx := inst.Virtual().Framework().SystemContext()
		ref, ok := ctx.ServiceReference(services.LogServiceClass)
		if !ok {
			t.Fatalf("t%d lacks the shared log service", i)
		}
		svc, err := ctx.GetService(ref)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, svc)
	}
	if logs[0] != logs[1] || logs[1] != logs[2] {
		t.Fatal("tenants got different log service instances; sharing broken")
	}
	if logs[0] != any(node.Log()) {
		t.Fatal("shared service is not the node's log")
	}
}

func TestMetricsProviders(t *testing.T) {
	c := newCluster(t, 2)
	attrs, ok := c.Metrics().Read("node:node00")
	if !ok {
		t.Fatal("node provider missing")
	}
	if attrs["powered"] != true || attrs["cpuTotal"].(int64) != 4000 {
		t.Fatalf("attrs = %v", attrs)
	}
	if err := c.Crash("node00"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Metrics().Read("node:node00"); ok {
		t.Fatal("crashed node still exports metrics")
	}
}

func slaAgreement(cpu int64) sla.Agreement {
	return sla.Agreement{Customer: "acme", CPUMillicores: cpu, Priority: 1, AvailabilityTarget: 0.99}
}

// TestDirectoryProviderAttributes pins the directory:<node> metrics
// provider's exact attribute set: nine int64 counters per record family,
// prefixed with the family name.
func TestDirectoryProviderAttributes(t *testing.T) {
	var want []string
	for _, family := range []string{"endpoint", "artifact", "health"} {
		for _, counter := range []string{"Puts", "Removes", "Syncs", "Added", "Updated", "Removed", "SilentSyncs", "Pruned", "Filtered"} {
			want = append(want, family+counter)
		}
	}
	sort.Strings(want)
	c := newCluster(t, 2)
	attrs, ok := c.Metrics().Read("directory:" + c.Nodes()[0].ID())
	if !ok {
		t.Fatal("no directory provider")
	}
	got := make([]string, 0, len(attrs))
	for name, v := range attrs {
		got = append(got, name)
		if _, ok := v.(int64); !ok {
			t.Fatalf("%s = %T, want int64", name, v)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attributes\n got %v\nwant %v", got, want)
	}
}

// TestNodeProviderSumsGCSState pins the node provider's group
// communication attributes: message counts, total-order state sizes,
// hold-back counters and evidence counters read off the node's member.
func TestNodeProviderSumsGCSState(t *testing.T) {
	c := newCluster(t, 3)
	// Evidence against a live node reaches the reporter's member, which
	// keeps the node.
	c.Nodes()[2].Member().Suspect("node00")
	c.Settle(100 * time.Millisecond)
	var suspicions, exclusions int64
	for _, n := range c.Nodes() {
		want := n.Member().Stats()
		attrs, ok := c.Metrics().Read("node:" + n.ID())
		if !ok {
			t.Fatalf("no node provider for %s", n.ID())
		}
		if attrs["dirMsgsSent"] != want.MsgsSent || attrs["gcsTotalLog"] != int64(want.TotalLogSize) ||
			attrs["gcsDedupHeld"] != int64(want.DedupHeld) || attrs["gcsHeldBatches"] != int64(want.HeldBatches) ||
			attrs["gcsHoldOverflows"] != int64(want.HoldOverflows) ||
			attrs["gcsSuspicions"] != int64(want.Suspicions) || attrs["gcsEvidenceProbes"] != int64(want.EvidenceProbes) ||
			attrs["gcsEvidenceExclusions"] != int64(want.EvidenceExclusions) {
			t.Fatalf("%s: attrs %v, want %+v", n.ID(), attrs, want)
		}
		suspicions += attrs["gcsSuspicions"].(int64)
		exclusions += attrs["gcsEvidenceExclusions"].(int64)
	}
	if suspicions != 1 || exclusions != 0 {
		t.Fatalf("%d suspicions and %d exclusions, want 1 and 0", suspicions, exclusions)
	}
}
