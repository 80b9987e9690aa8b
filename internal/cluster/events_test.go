package cluster

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/module"
	"dosgi/internal/remote"
)

// tickerService is registered inside a virtual framework and exported
// cluster-wide; answers are stamped with the owning instance.
type tickerService struct{ instance string }

func (s *tickerService) Tick(n int64) string {
	return fmt.Sprintf("tick %d from %s", n, s.instance)
}

// tickerDefinition is a bundle whose activator exports svc.ticker from
// whatever (virtual) framework it starts in.
func tickerDefinition() *module.Definition {
	return tickerDefinitionAs(func(string) string { return "svc.ticker" })
}

// tickerDefinitionAs is tickerDefinition exporting under the name
// exported(instance) instead.
func tickerDefinitionAs(exported func(instance string) string) *module.Definition {
	return &module.Definition{
		ManifestText: `Bundle-SymbolicName: app.ticker
Bundle-Version: 1.0.0
Bundle-Activator: app.ticker.Activator
`,
		Classes: map[string]any{"app.ticker.Ticker": "ticker"},
		NewActivator: func() module.Activator {
			var reg *module.ServiceRegistration
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					svc := &tickerService{instance: ctx.Property("vosgi.instance")}
					var err error
					reg, err = ctx.RegisterSingle("app.Ticker", svc, module.Properties{
						module.PropServiceExported:     true,
						module.PropServiceExportedName: exported(svc.instance),
					})
					return err
				},
				OnStop: func(ctx *module.Context) error {
					if reg != nil {
						_ = reg.Unregister()
					}
					return nil
				},
			}
		},
	}
}

// tickerTenant describes an instance running the ticker bundle.
func tickerTenant(id string) core.Descriptor {
	return core.Descriptor{
		ID:       core.InstanceID(id),
		Customer: "customer-" + id,
		Bundles:  []core.BundleSpec{{Location: "app:ticker", Start: true}},
		Resources: core.ResourceSpec{
			CPUMillicores: 500,
			MemoryBytes:   128 << 20,
			Weight:        1,
			Priority:      1,
		},
	}
}

// TestInstanceExportInvokedClusterWideAndSurvivesMigration is the
// acceptance path of the virtual-framework export + events work: a
// service exported inside a virtual framework on node A is invoked from
// node B through a proxy, the instance migrates to node C, the same proxy
// keeps working, and a subscriber on node B observes the
// UNREGISTERING/REGISTERED event pair with the instance id attached.
func TestInstanceExportInvokedClusterWideAndSurvivesMigration(t *testing.T) {
	c := newCluster(t, 3)
	c.Definitions().MustAdd("app:ticker", tickerDefinition())
	nodes := c.Nodes()

	if err := c.Deploy(nodes[0].ID(), tickerTenant("tenant-t")); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)

	// The instance's export is announced cluster-wide, stamped with the
	// owning instance id.
	for _, n := range nodes {
		eps := n.Migration().Directory().EndpointsFor("svc.ticker")
		if len(eps) != 1 || eps[0].Node != nodes[0].ID() || eps[0].Instance != "tenant-t" {
			t.Fatalf("node %s directory = %+v", n.ID(), eps)
		}
	}

	// Node B imports the service and subscribes to the event stream.
	proxy, err := nodes[1].ImportService("app.Ticker", "svc.ticker")
	if err != nil {
		t.Fatal(err)
	}
	var events []remote.ServiceEvent
	sub, err := nodes[1].SubscribeEvents("svc.*", func(ev remote.ServiceEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c.Settle(200 * time.Millisecond)
	if len(events) != 1 || events[0].Type != remote.ServiceRegistered ||
		events[0].Node != nodes[0].ID() || events[0].Instance != "tenant-t" {
		t.Fatalf("resync events = %+v", events)
	}

	call := func(n int64) string {
		var out string
		var callErr error
		done := false
		proxy.Go("Tick", []any{n}, func(res []any, err error) {
			done = true
			callErr = err
			if err == nil {
				out = res[0].(string)
			}
		})
		c.Settle(200 * time.Millisecond)
		if !done || callErr != nil {
			t.Fatalf("Tick(%d): done=%v err=%v", n, done, callErr)
		}
		return out
	}
	if got := call(1); got != "tick 1 from tenant-t" {
		t.Fatalf("pre-migration call = %q", got)
	}

	// Migrate the instance to node C; the service travels with it.
	if err := nodes[0].Migration().Migrate("tenant-t", nodes[2].ID()); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)

	if insts := nodes[2].Instances(); len(insts) != 1 || insts[0] != "tenant-t" {
		t.Fatalf("instance not on %s: %v", nodes[2].ID(), insts)
	}
	eps := nodes[1].Migration().Directory().EndpointsFor("svc.ticker")
	if len(eps) != 1 || eps[0].Node != nodes[2].ID() || eps[0].Instance != "tenant-t" {
		t.Fatalf("post-migration directory = %+v", eps)
	}

	// Same proxy, no re-import: the call now lands on node C.
	if got := call(2); got != "tick 2 from tenant-t" {
		t.Fatalf("post-migration call = %q", got)
	}

	// The importer observed the relocation as an event pair.
	if len(events) != 3 {
		t.Fatalf("events = %+v", events)
	}
	if events[1].Type != remote.ServiceUnregistering || events[1].Node != nodes[0].ID() ||
		events[1].Instance != "tenant-t" {
		t.Fatalf("missing UNREGISTERING from %s: %+v", nodes[0].ID(), events[1])
	}
	if events[2].Type != remote.ServiceRegistered || events[2].Node != nodes[2].ID() ||
		events[2].Instance != "tenant-t" {
		t.Fatalf("missing REGISTERED from %s: %+v", nodes[2].ID(), events[2])
	}
}

// TestInstanceExportSurvivesCrashFailover: same contract under failure —
// the hosting node crashes, the survivors redeploy the instance, its
// exports are re-announced from the new host, and the old proxy keeps
// working after the failure-detector window.
func TestInstanceExportSurvivesCrashFailover(t *testing.T) {
	c := newCluster(t, 3)
	c.Definitions().MustAdd("app:ticker", tickerDefinition())
	nodes := c.Nodes()
	if err := c.Deploy(nodes[0].ID(), tickerTenant("tenant-x")); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)

	proxy, err := nodes[1].ImportService("app.Ticker", "svc.ticker")
	if err != nil {
		t.Fatal(err)
	}
	var events []remote.ServiceEvent
	sub, err := nodes[1].SubscribeEvents("svc.*", func(ev remote.ServiceEvent) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c.Settle(200 * time.Millisecond)

	if err := c.Crash(nodes[0].ID()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second) // detection + redeployment + re-announce

	eps := nodes[1].Migration().Directory().EndpointsFor("svc.ticker")
	if len(eps) != 1 || eps[0].Node == nodes[0].ID() || eps[0].Instance != "tenant-x" {
		t.Fatalf("post-crash directory = %+v", eps)
	}
	done, out := false, ""
	var callErr error
	proxy.Go("Tick", []any{int64(7)}, func(res []any, err error) {
		done, callErr = true, err
		if err == nil {
			out = res[0].(string)
		}
	})
	c.Settle(300 * time.Millisecond)
	if !done || callErr != nil || out != "tick 7 from tenant-x" {
		t.Fatalf("post-crash call: done=%v err=%v out=%q", done, callErr, out)
	}
	// UNREGISTERING (node lost, pruned from the directory on the view
	// change) followed by REGISTERED from the redeployment target.
	if len(events) != 3 || events[1].Type != remote.ServiceUnregistering ||
		events[2].Type != remote.ServiceRegistered || events[2].Node == nodes[0].ID() {
		t.Fatalf("crash events = %+v", events)
	}
}

// TestEventSubscriptionResyncsAcrossPartitionHeal: the subscriber's event
// server is partitioned away; the subscription fails over to another
// node, receives a synthetic resync of the current exports with no
// duplicate events, and live events keep flowing.
func TestEventSubscriptionResyncsAcrossPartitionHeal(t *testing.T) {
	c := newCluster(t, 3)
	nodes := c.Nodes()
	if _, err := nodes[2].ExportService("svc.greeter", "app.Greeter", greeter{node: nodes[2].ID()}); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)

	// Subscribe from node B, preferring node A's event server with node
	// B's own as the fallback.
	var events []remote.ServiceEvent
	sub, err := nodes[1].SubscribeEvents("svc.*", func(ev remote.ServiceEvent) {
		events = append(events, ev)
	}, nodes[0].RemoteAddr(), nodes[1].RemoteAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c.Settle(300 * time.Millisecond)
	if sub.Connected() != nodes[0].RemoteAddr() {
		t.Fatalf("Connected = %q, want %s", sub.Connected(), nodes[0].RemoteAddr())
	}
	if len(events) != 1 || events[0].Service != "svc.greeter" || events[0].Node != nodes[2].ID() {
		t.Fatalf("initial events = %+v", events)
	}

	// Cut node A off from B and C: the subscription must fail over to
	// node B and resync without duplicating svc.greeter.
	c.Network().Partition(nodes[0].ID(), nodes[1].ID())
	c.Network().Partition(nodes[0].ID(), nodes[2].ID())
	c.Settle(2 * time.Second)
	if sub.Connected() != nodes[1].RemoteAddr() {
		t.Fatalf("after partition Connected = %q, want %s", sub.Connected(), nodes[1].RemoteAddr())
	}

	// A new export during the blackout arrives exactly once through the
	// new subscription — and the failover resync did NOT duplicate the
	// export the subscriber already knew.
	if _, err := nodes[2].ExportService("svc.extra", "app.Extra", greeter{node: nodes[2].ID()}); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)
	if len(events) != 2 || events[1].Type != remote.ServiceRegistered || events[1].Service != "svc.extra" {
		t.Fatalf("events after failover = %+v", events)
	}
	if st := sub.Stats(); st.Dupes == 0 {
		t.Fatalf("resync did not replay (and suppress) the known export: %+v", st)
	}

	c.Network().HealAll()
	c.Settle(3 * time.Second) // views merge + endpoint resyncs replay

	// The pairwise GCS merge transits through views that briefly exclude
	// node C, so the directory — and therefore the event stream — may
	// faithfully report an UNREGISTERING/REGISTERED flap. What the event
	// contract guarantees is consistency, not silence: every event is a
	// real state change (a REGISTERED for an already-known replica or an
	// UNREGISTERING for an unknown one never surfaces), and the stream
	// converges back to the live export set.
	state := make(map[string]bool)
	for i, ev := range events {
		key := ev.Service + "@" + ev.Node
		switch ev.Type {
		case remote.ServiceRegistered:
			if state[key] {
				t.Fatalf("event %d: duplicate REGISTERED for %s: %+v", i, key, events)
			}
			state[key] = true
		case remote.ServiceUnregistering:
			if !state[key] {
				t.Fatalf("event %d: UNREGISTERING for unknown %s: %+v", i, key, events)
			}
			delete(state, key)
		}
	}
	want := map[string]bool{
		"svc.greeter@" + nodes[2].ID(): true,
		"svc.extra@" + nodes[2].ID():   true,
	}
	if len(state) != len(want) {
		t.Fatalf("converged state = %v, events = %+v", state, events)
	}
	for key := range want {
		if !state[key] {
			t.Fatalf("converged state missing %s: %v", key, state)
		}
	}
	if sub.Known() != 2 {
		t.Fatalf("subscriber known = %d, want 2", sub.Known())
	}
}

// TestHostInstanceNameCollisionSurvivesWithdrawal: host and instance
// exports share the per-node directory slot for a service name; when the
// colliding instance stops, the surviving host export must reclaim the
// record instead of vanishing cluster-wide.
func TestHostInstanceNameCollisionSurvivesWithdrawal(t *testing.T) {
	c := newCluster(t, 2)
	c.Definitions().MustAdd("app:ticker", tickerDefinition())
	nodes := c.Nodes()

	// Host-level export of svc.ticker on node A…
	if _, err := nodes[0].ExportService("svc.ticker", "app.Ticker", &tickerService{instance: "host"}); err != nil {
		t.Fatal(err)
	}
	c.Settle(300 * time.Millisecond)
	// …then an instance on the same node exports the same name (its
	// announce takes the shared directory slot).
	if err := c.Deploy(nodes[0].ID(), tickerTenant("tenant-c")); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)
	eps := nodes[1].Migration().Directory().EndpointsFor("svc.ticker")
	if len(eps) != 1 || eps[0].Instance != "tenant-c" {
		t.Fatalf("colliding directory = %+v", eps)
	}

	// Destroying the instance withdraws ITS record, and the host export
	// reclaims the slot — remote calls keep working throughout.
	if err := nodes[0].Manager().Destroy("tenant-c"); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)
	eps = nodes[1].Migration().Directory().EndpointsFor("svc.ticker")
	if len(eps) != 1 || eps[0].Instance != "" || eps[0].Node != nodes[0].ID() {
		t.Fatalf("host export did not reclaim the record: %+v", eps)
	}
	done, out := false, ""
	var callErr error
	nodes[1].InvokeRemote("svc.ticker", "Tick", []any{int64(5)}, func(res []any, err error) {
		done, callErr = true, err
		if err == nil {
			out = res[0].(string)
		}
	})
	c.Settle(200 * time.Millisecond)
	if !done || callErr != nil || out != "tick 5 from host" {
		t.Fatalf("post-collision call: done=%v err=%v out=%q", done, callErr, out)
	}
}

// TestEagerPoolRefreshOnWithdrawal: when a live node withdraws its last
// export, importers sever pooled connections to it eagerly (on the event)
// rather than on the next failed call.
func TestEagerPoolRefreshOnWithdrawal(t *testing.T) {
	c := newCluster(t, 2)
	nodes := c.Nodes()
	reg, err := nodes[0].ExportService("svc.solo", "app.Solo", greeter{node: nodes[0].ID()})
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)

	// Warm a pooled connection from node B to node A.
	done := false
	nodes[1].InvokeRemote("svc.solo", "Shout", []any{"hi"}, func(res []any, err error) {
		if err != nil {
			t.Errorf("warm call: %v", err)
		}
		done = true
	})
	c.Settle(200 * time.Millisecond)
	if !done {
		t.Fatal("warm call never completed")
	}
	addr := nodes[0].RemoteAddr()
	if n := nodes[1].Invoker().Pool().ConnCount(addr); n == 0 {
		t.Fatal("no pooled connection to warm")
	}

	// Node A keeps its provisioning export, so its address still hosts a
	// service: the pool must NOT be severed on svc.solo's withdrawal...
	if err := reg.Unregister(); err != nil {
		t.Fatal(err)
	}
	c.Settle(500 * time.Millisecond)
	if n := nodes[1].Invoker().Pool().ConnCount(addr); n == 0 {
		t.Fatal("pool severed while the address still hosts dosgi.provision")
	}

	// ...until the node's last export goes away (simulated by pruning the
	// provisioning record the way a drain would).
	nodes[0].Migration().WithdrawEndpoint("dosgi.provision")
	c.Settle(500 * time.Millisecond)
	if n := nodes[1].Invoker().Pool().ConnCount(addr); n != 0 {
		t.Fatalf("pool to %s not severed eagerly: %d conns", addr, n)
	}
}
