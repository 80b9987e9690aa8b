package migrate

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/san"
)

// realClockNode is one node of the real-clock harness below.
type realClockNode struct {
	id     string
	member *gcs.Member
	mod    *Module
}

// newRealClockPair wires two migrate modules over netsim driven by the
// REAL clock: deliveries, timers and anti-entropy run on concurrent
// goroutines instead of the single-threaded simulator.
func newRealClockPair(t *testing.T, resyncEvery time.Duration) (sched *clock.Real, nodes [2]*realClockNode) {
	t.Helper()
	sched = clock.NewReal()
	t.Cleanup(sched.Stop)
	net := netsim.NewNetwork(sched, netsim.WithLatency(200*time.Microsecond))
	store := san.NewStore(sched)
	gdir := gcs.NewDirectory()
	defs := module.NewDefinitionRegistry()

	for i := range nodes {
		id := fmt.Sprintf("node%02d", i)
		nic := net.AttachNode(id)
		ip := netsim.IP("ip-" + id)
		if err := net.AssignIP(ip, id); err != nil {
			t.Fatal(err)
		}
		host := module.New(module.WithName(id), module.WithDefinitions(defs))
		if err := host.Start(); err != nil {
			t.Fatal(err)
		}
		mgr := core.NewManager(host, core.Hooks{})
		member, err := gcs.NewMember(sched, gcs.Config{
			NodeID:    id,
			Addr:      netsim.Addr{IP: ip, Port: 7000},
			NIC:       nic,
			Directory: gdir,
		})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModule(Config{
			NodeID: id, Sched: sched, Member: member, Store: store, Manager: mgr,
			CPUCapacity: 1000, MemCapacity: 1 << 30,
			ResyncEvery: resyncEvery,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.Start(); err != nil {
			t.Fatal(err)
		}
		if err := member.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &realClockNode{id: id, member: member, mod: mod}
	}

	waitFor(t, 5*time.Second, "group formation", func() bool {
		return len(nodes[0].member.View().Members) == 2 &&
			len(nodes[1].member.View().Members) == 2
	})
	return sched, nodes
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRealClockBroadcastOrdering is the real-clock ordering stress the
// ROADMAP audit called for: announce/withdraw churn in BOTH record
// families races an aggressive anti-entropy ticker on concurrent
// goroutines. Because every record broadcast — puts, removes and the
// resync snapshots — submits under the module lock, snapshot order
// equals sequencing order: after the churn the directories converge to
// exactly the final owned sets, and a converged directory stays silent
// (no flapping deltas from stale snapshots sequenced late). Run under
// -race this also proves the owned-set snapshots are data-race-free.
func TestRealClockBroadcastOrdering(t *testing.T) {
	const resync = 10 * time.Millisecond
	_, nodes := newRealClockPair(t, resync)
	a, b := nodes[0], nodes[1]

	// A steady export on node01 must survive node00's churn untouched.
	b.mod.AnnounceEndpointFor("steady", "ip-node01:7100", "")
	b.mod.AnnounceArtifact(art("steady-digest", b.id))

	const (
		names  = 16  // distinct services / digests churned
		rounds = 250 // announce/withdraw rounds per family
	)
	done := make(chan struct{}, 2)
	go func() { // endpoint churn
		for i := 0; i < rounds; i++ {
			svc := fmt.Sprintf("svc.%02d", i%names)
			a.mod.AnnounceEndpointFor(svc, fmt.Sprintf("ip-node00:%d", 7100+i%3), "")
			if i%3 == 2 {
				a.mod.WithdrawEndpoint(svc)
			}
		}
		done <- struct{}{}
	}()
	go func() { // artifact churn
		for i := 0; i < rounds; i++ {
			info := art(fmt.Sprintf("digest-%02d", i%names), a.id)
			info.Location = fmt.Sprintf("app:%d", i) // content drift → Updated deltas
			a.mod.AnnounceArtifact(info)
			if i%3 == 2 {
				a.mod.WithdrawArtifact(info.Digest)
			}
		}
		done <- struct{}{}
	}()
	<-done
	<-done

	// Deterministic final state on node00.
	for i := 0; i < names; i++ {
		a.mod.WithdrawEndpoint(fmt.Sprintf("svc.%02d", i))
		a.mod.WithdrawArtifact(fmt.Sprintf("digest-%02d", i))
	}
	finalEp := EndpointInfo{Service: "final", Node: a.id, Addr: "ip-node00:7100"}
	finalArt := art("final-digest", a.id)
	a.mod.AnnounceEndpointFor(finalEp.Service, finalEp.Addr, "")
	a.mod.AnnounceArtifact(finalArt)

	wantEps := []EndpointInfo{finalEp, {Service: "steady", Node: b.id, Addr: "ip-node01:7100"}}
	wantArts := []ArtifactInfo{art("final-digest", a.id), art("steady-digest", b.id)}
	converged := func() bool {
		for _, n := range nodes {
			if !reflect.DeepEqual(n.mod.Directory().Endpoints(), wantEps) ||
				!reflect.DeepEqual(n.mod.Directory().Artifacts(), wantArts) {
				return false
			}
		}
		return true
	}
	waitFor(t, 10*time.Second, "directory convergence", converged)

	// Stale snapshots sequenced after the final announcements would
	// surface here: across at least 20 further resync rounds in each
	// family the directories must stay exactly converged and emit no
	// deltas at all. Deltas have two possible causes, and the failure
	// names which: a false suspicion excludes a live node and prunes its
	// records (Pruned advances; ROADMAP direction 5), a reordering flap
	// applies a stale snapshot late (Pruned does not; direction 1).
	const silentRounds = 20
	epBefore, artBefore := b.mod.EndpointStats(), b.mod.ArtifactStats()
	prunedBefore := prunedRecords(nodes)
	cause := func() string {
		if p := prunedRecords(nodes); p != prunedBefore {
			return fmt.Sprintf("cause: false suspicion, Pruned advanced %d -> %d (a view change dropped a live holder's records)", prunedBefore, p)
		}
		return fmt.Sprintf("cause: reordering flap, Pruned stayed %d (no view change dropped records; a stale snapshot applied late)", prunedBefore)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ep, ar := b.mod.EndpointStats(), b.mod.ArtifactStats()
		if ep.Syncs-epBefore.Syncs >= silentRounds && ep.SilentSyncs-epBefore.SilentSyncs >= silentRounds &&
			ar.Syncs-artBefore.Syncs >= silentRounds && ar.SilentSyncs-artBefore.SilentSyncs >= silentRounds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("anti-entropy not running silently: %d resync rounds per family not reached in 10s: endpoints before %+v after %+v, artifacts before %+v after %+v",
				silentRounds, epBefore, ep, artBefore, ar)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !converged() {
		t.Fatalf("directories flapped after convergence (%s):\nA eps %+v arts %+v\nB eps %+v arts %+v", cause(),
			a.mod.Directory().Endpoints(), a.mod.Directory().Artifacts(),
			b.mod.Directory().Endpoints(), b.mod.Directory().Artifacts())
	}
	epAfter, artAfter := b.mod.EndpointStats(), b.mod.ArtifactStats()
	if epAfter.Added != epBefore.Added || epAfter.Updated != epBefore.Updated || epAfter.Removed != epBefore.Removed {
		t.Fatalf("endpoint deltas after convergence (%s): before %+v after %+v", cause(), epBefore, epAfter)
	}
	if artAfter.Added != artBefore.Added || artAfter.Updated != artBefore.Updated || artAfter.Removed != artBefore.Removed {
		t.Fatalf("artifact deltas after convergence (%s): before %+v after %+v", cause(), artBefore, artAfter)
	}
	if artAfter.Syncs <= artBefore.Syncs || artAfter.SilentSyncs <= artBefore.SilentSyncs {
		t.Fatalf("anti-entropy not running silently: before %+v after %+v", artBefore, artAfter)
	}
}

// prunedRecords sums the records both nodes dropped with a departed
// holder, over both families.
func prunedRecords(nodes [2]*realClockNode) int64 {
	var n int64
	for _, node := range nodes {
		n += node.mod.EndpointStats().Pruned + node.mod.ArtifactStats().Pruned
	}
	return n
}

// TestRealClockSubscribeDuringDeliveries: subscribing while another
// node's churn is being applied on concurrent goroutines is race-free
// (the hook list is copy-on-write), and every subscriber sees the deltas
// applied after it subscribed — here, the final announcement.
func TestRealClockSubscribeDuringDeliveries(t *testing.T) {
	_, nodes := newRealClockPair(t, 10*time.Millisecond)
	a, b := nodes[0], nodes[1]
	const hooks = 64
	var seen [hooks]atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			a.mod.AnnounceEndpointFor(fmt.Sprintf("svc.%02d", i%16), fmt.Sprintf("ip-node00:%d", 7100+i), "")
		}
	}()
	for i := 0; i < hooks; i++ {
		b.mod.OnEndpointChange(func(ch EndpointChange) {
			if ch.Info.Service == "final" {
				seen[i].Store(true)
			}
		})
	}
	<-done
	a.mod.AnnounceEndpointFor("final", "ip-node00:7100", "")
	waitFor(t, 10*time.Second, "every subscriber to see the final record", func() bool {
		for i := range seen {
			if !seen[i].Load() {
				return false
			}
		}
		return true
	})
}
