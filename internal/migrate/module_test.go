package migrate

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/san"
	"dosgi/internal/sim"
)

// testNode bundles everything one node runs in these tests.
type testNode struct {
	id     string
	host   *module.Framework
	mgr    *core.Manager
	member *gcs.Member
	mod    *Module
	events []Event
}

type testCluster struct {
	t     *testing.T
	eng   *sim.Engine
	net   *netsim.Network
	store *san.Store
	gdir  *gcs.Directory
	defs  *module.DefinitionRegistry
	nodes map[string]*testNode
}

func newTestCluster(t *testing.T, n int) *testCluster {
	return newTestClusterSeed(t, n, 1)
}

func newTestClusterSeed(t *testing.T, n int, seed int64) *testCluster {
	t.Helper()
	eng := sim.New(seed)
	tc := &testCluster{
		t:     t,
		eng:   eng,
		net:   netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond)),
		store: san.NewStore(eng),
		gdir:  gcs.NewDirectory(),
		defs:  module.NewDefinitionRegistry(),
		nodes: make(map[string]*testNode),
	}
	tc.defs.MustAdd("loc:tenant-app", &module.Definition{
		ManifestText: "Bundle-SymbolicName: com.tenant.app\nBundle-Version: 1.0.0\n",
		Classes:      map[string]any{"com.tenant.app.Main": "main"},
	})
	for i := 0; i < n; i++ {
		tc.addNode(fmt.Sprintf("node%02d", i))
	}
	return tc
}

func (tc *testCluster) addNode(id string) *testNode {
	tc.t.Helper()
	nic := tc.net.AttachNode(id)
	ip := netsim.IP("ip-" + id)
	if err := tc.net.AssignIP(ip, id); err != nil {
		tc.t.Fatal(err)
	}
	host := module.New(module.WithName(id), module.WithDefinitions(tc.defs))
	if err := host.Start(); err != nil {
		tc.t.Fatal(err)
	}
	mgr := core.NewManager(host, core.Hooks{})
	member, err := gcs.NewMember(tc.eng, gcs.Config{
		NodeID:    id,
		Addr:      netsim.Addr{IP: ip, Port: 7000},
		NIC:       nic,
		Directory: tc.gdir,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	node := &testNode{id: id, host: host, mgr: mgr, member: member}
	mod, err := NewModule(Config{
		NodeID:      id,
		Sched:       tc.eng,
		Member:      member,
		Store:       tc.store,
		Manager:     mgr,
		CPUCapacity: 2000,
		MemCapacity: 4 << 30,
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	node.mod = mod
	mod.OnEvent(func(ev Event) { node.events = append(node.events, ev) })
	if err := mod.Start(); err != nil {
		tc.t.Fatal(err)
	}
	if err := member.Start(); err != nil {
		tc.t.Fatal(err)
	}
	tc.nodes[id] = node
	return node
}

func (tc *testCluster) settle() { tc.eng.RunFor(2 * time.Second) }

func (tc *testCluster) deploy(nodeID string, id core.InstanceID) {
	tc.t.Helper()
	n := tc.nodes[nodeID]
	desc := core.Descriptor{
		ID:       id,
		Customer: "acme",
		Bundles:  []core.BundleSpec{{Location: "loc:tenant-app", Start: true}},
		Resources: core.ResourceSpec{
			CPUMillicores: 500, MemoryBytes: 64 << 20, Priority: 1,
		},
	}
	if _, err := n.mgr.Create(desc); err != nil {
		tc.t.Fatal(err)
	}
	if err := n.mgr.Start(id); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testCluster) crash(nodeID string) {
	n := tc.nodes[nodeID]
	n.member.Crash()
	if nic, ok := tc.net.NIC(nodeID); ok {
		nic.SetUp(false)
	}
}

func countEvents(events []Event, kind EventType) int {
	n := 0
	for _, ev := range events {
		if ev.Type == kind {
			n++
		}
	}
	return n
}

func TestDirectoryReplication(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()
	tc.deploy("node01", "tenant-a")
	tc.settle()

	for id, n := range tc.nodes {
		info, ok := n.mod.Directory().Instance("tenant-a")
		if !ok {
			t.Fatalf("%s has no record of tenant-a", id)
		}
		if info.Node != "node01" || !info.Running {
			t.Fatalf("%s record = %+v", id, info)
		}
		nodes := n.mod.Directory().Nodes()
		if len(nodes) != 3 {
			t.Fatalf("%s sees %d nodes", id, len(nodes))
		}
	}
	// Checkpoint landed on the SAN.
	if _, err := tc.store.Get(CheckpointPath("tenant-a")); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
}

func TestCrashRedeployment(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()
	tc.deploy("node01", "tenant-a")
	tc.deploy("node01", "tenant-b")
	tc.settle()

	// Put state into tenant-a's bundle and wait for a checkpoint.
	instA, _ := tc.nodes["node01"].mgr.Get("tenant-a")
	b, _ := instA.Virtual().Framework().GetBundleByLocation("loc:tenant-app")
	if err := b.DataPut("state", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	// Stop+start to trigger a fresh lifecycle checkpoint carrying the data.
	if err := tc.nodes["node01"].mgr.Stop("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if err := tc.nodes["node01"].mgr.Start("tenant-a"); err != nil {
		t.Fatal(err)
	}
	tc.settle()

	tc.crash("node01")
	tc.eng.RunFor(3 * time.Second)

	// Both instances must be running somewhere among the survivors.
	located := map[core.InstanceID]string{}
	for _, survivor := range []string{"node00", "node02"} {
		for _, inst := range tc.nodes[survivor].mgr.List() {
			if inst.State() == core.InstanceRunning {
				located[inst.ID()] = survivor
			}
		}
	}
	if len(located) != 2 {
		t.Fatalf("redeployed instances = %v", located)
	}
	// Directory agrees on the survivors.
	for _, survivor := range []string{"node00", "node02"} {
		for id, node := range located {
			info, ok := tc.nodes[survivor].mod.Directory().Instance(id)
			if !ok || info.Node != node {
				t.Fatalf("%s directory: %v -> %+v (want %s)", survivor, id, info, node)
			}
		}
	}
	// State survived via the SAN checkpoint.
	home := located["tenant-a"]
	instA2, _ := tc.nodes[home].mgr.Get("tenant-a")
	b2, ok := instA2.Virtual().Framework().GetBundleByLocation("loc:tenant-app")
	if !ok {
		t.Fatal("tenant bundle missing after redeploy")
	}
	data, ok := b2.DataGet("state")
	if !ok || string(data) != "precious" {
		t.Fatalf("bundle state lost: %q ok=%v", data, ok)
	}
	// Exactly one survivor redeployed each instance (no duplicates).
	for id := range located {
		holders := 0
		for _, survivor := range []string{"node00", "node02"} {
			if _, ok := tc.nodes[survivor].mgr.Get(id); ok {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("instance %s present on %d nodes", id, holders)
		}
	}
	// Node-lost events fired.
	if countEvents(tc.nodes["node00"].events, EventNodeLost) == 0 {
		t.Fatal("no NODE_LOST event on survivor")
	}
}

func TestPlannedMigration(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.settle()
	tc.deploy("node00", "tenant-a")
	tc.settle()

	inst, _ := tc.nodes["node00"].mgr.Get("tenant-a")
	b, _ := inst.Virtual().Framework().GetBundleByLocation("loc:tenant-app")
	if err := b.DataPut("state", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	if err := tc.nodes["node00"].mod.Migrate("tenant-a", "node01"); err != nil {
		t.Fatal(err)
	}
	tc.settle()

	if _, still := tc.nodes["node00"].mgr.Get("tenant-a"); still {
		t.Fatal("instance still on source after migration")
	}
	inst2, ok := tc.nodes["node01"].mgr.Get("tenant-a")
	if !ok || inst2.State() != core.InstanceRunning {
		t.Fatalf("instance on target: ok=%v", ok)
	}
	b2, _ := inst2.Virtual().Framework().GetBundleByLocation("loc:tenant-app")
	data, _ := b2.DataGet("state")
	if string(data) != "v1" {
		t.Fatalf("state after migration = %q", data)
	}
	// Events on both sides.
	if countEvents(tc.nodes["node00"].events, EventMigratedOut) != 1 {
		t.Fatalf("source events = %v", tc.nodes["node00"].events)
	}
	if countEvents(tc.nodes["node01"].events, EventMigratedIn) != 1 {
		t.Fatalf("target events = %v", tc.nodes["node01"].events)
	}
	// Directory converged.
	info, _ := tc.nodes["node00"].mod.Directory().Instance("tenant-a")
	if info.Node != "node01" {
		t.Fatalf("directory node = %s", info.Node)
	}
}

func TestMigrateErrors(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.settle()
	if err := tc.nodes["node00"].mod.Migrate("ghost", "node01"); err == nil {
		t.Fatal("migrating unknown instance succeeded")
	}
	tc.deploy("node00", "tenant-a")
	tc.settle()
	if err := tc.nodes["node00"].mod.Migrate("tenant-a", "node01"); err != nil {
		t.Fatal(err)
	}
	// Second migration while the first is in flight fails.
	if err := tc.nodes["node00"].mod.Migrate("tenant-a", "node01"); err == nil {
		t.Fatal("concurrent migration accepted")
	}
}

func TestGracefulShutdownDrainsInstances(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()
	tc.deploy("node00", "tenant-a")
	tc.deploy("node00", "tenant-b")
	tc.settle()

	done := false
	if err := tc.nodes["node00"].mod.Shutdown(func() { done = true }); err != nil {
		t.Fatal(err)
	}
	tc.eng.RunFor(3 * time.Second)
	if !done {
		t.Fatal("shutdown callback never fired")
	}
	// Instances drained to the survivors, spread across them.
	homes := map[string]int{}
	for _, survivor := range []string{"node01", "node02"} {
		for _, inst := range tc.nodes[survivor].mgr.List() {
			if inst.State() != core.InstanceRunning {
				t.Fatalf("drained instance %s not running", inst.ID())
			}
			homes[survivor]++
		}
	}
	if homes["node01"]+homes["node02"] != 2 {
		t.Fatalf("homes = %v", homes)
	}
	if homes["node01"] != 1 || homes["node02"] != 1 {
		t.Fatalf("drain did not spread: %v", homes)
	}
	// The survivors never saw node00 as failed (no NODE_LOST).
	for _, survivor := range []string{"node01", "node02"} {
		if countEvents(tc.nodes[survivor].events, EventNodeLost) != 0 {
			t.Fatalf("%s saw NODE_LOST on graceful shutdown", survivor)
		}
	}
}

func TestStrictModeUnplaceable(t *testing.T) {
	// Two tiny nodes; the failed node's big instance cannot fit.
	eng := sim.New(1)
	tc := &testCluster{
		t:     t,
		eng:   eng,
		net:   netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond)),
		store: san.NewStore(eng),
		gdir:  gcs.NewDirectory(),
		defs:  module.NewDefinitionRegistry(),
		nodes: make(map[string]*testNode),
	}
	tc.defs.MustAdd("loc:tenant-app", &module.Definition{
		ManifestText: "Bundle-SymbolicName: com.tenant.app\nBundle-Version: 1.0.0\n",
	})
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("node%02d", i)
		nic := tc.net.AttachNode(id)
		_ = nic
		ip := netsim.IP("ip-" + id)
		if err := tc.net.AssignIP(ip, id); err != nil {
			t.Fatal(err)
		}
		host := module.New(module.WithName(id), module.WithDefinitions(tc.defs))
		if err := host.Start(); err != nil {
			t.Fatal(err)
		}
		mgr := core.NewManager(host, core.Hooks{})
		member, err := gcs.NewMember(eng, gcs.Config{
			NodeID: id, Addr: netsim.Addr{IP: ip, Port: 7000},
			NIC: mustNIC(t, tc.net, id), Directory: tc.gdir,
		})
		if err != nil {
			t.Fatal(err)
		}
		node := &testNode{id: id, host: host, mgr: mgr, member: member}
		mod, err := NewModule(Config{
			NodeID: id, Sched: eng, Member: member, Store: tc.store, Manager: mgr,
			CPUCapacity: 600, MemCapacity: 4 << 30,
			Mode: Strict,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.mod = mod
		mod.OnEvent(func(ev Event) { node.events = append(node.events, ev) })
		if err := mod.Start(); err != nil {
			t.Fatal(err)
		}
		if err := member.Start(); err != nil {
			t.Fatal(err)
		}
		tc.nodes[id] = node
	}
	tc.settle()
	// 500mc tenant on node01; node00 has 600 capacity but placement input
	// counts existing load. Deploy another 500mc instance on node00 so the
	// failed one cannot fit.
	tc.deploy("node00", "resident")
	tc.deploy("node01", "vagrant")
	tc.settle()

	tc.crash("node01")
	tc.eng.RunFor(3 * time.Second)

	if _, ok := tc.nodes["node00"].mgr.Get("vagrant"); ok {
		t.Fatal("strict mode placed an instance beyond capacity")
	}
	if countEvents(tc.nodes["node00"].events, EventUnplaceable) != 1 {
		t.Fatalf("events = %v", tc.nodes["node00"].events)
	}
	info, _ := tc.nodes["node00"].mod.Directory().Instance("vagrant")
	if info.Node != "" || info.Running {
		t.Fatalf("unplaceable record = %+v", info)
	}
}

func mustNIC(t *testing.T, net *netsim.Network, id string) *netsim.NIC {
	t.Helper()
	nic, ok := net.NIC(id)
	if !ok {
		t.Fatalf("nic %s missing", id)
	}
	return nic
}

func TestRedeployLatency(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.settle()
	tc.deploy("node01", "tenant-a")
	tc.settle()

	crashAt := tc.eng.Now()
	tc.crash("node01")
	var redeployedAt time.Duration
	for _, survivor := range []string{"node00", "node02"} {
		tc.nodes[survivor].mod.OnEvent(func(ev Event) {
			if ev.Type == EventRedeployed && ev.Instance == "tenant-a" && redeployedAt == 0 {
				redeployedAt = ev.At
			}
		})
	}
	tc.eng.RunFor(3 * time.Second)
	if redeployedAt == 0 {
		t.Fatal("never redeployed")
	}
	latency := redeployedAt - crashAt
	// Detection (~200-400ms with defaults) + SAN read + restore.
	if latency > time.Second {
		t.Fatalf("redeploy latency = %v", latency)
	}
}
