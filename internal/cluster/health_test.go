package cluster

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/health"
	"dosgi/internal/policy"
	"dosgi/internal/remote"
)

// newHealthCluster builds a 3-node cluster whose failure detector is slow
// enough (2s) that a sub-second partition induces call timeouts WITHOUT a
// membership change — pure latency degradation, the health plane's cue.
func newHealthCluster(t *testing.T) *Cluster {
	t.Helper()
	c := New(1, WithGCSTimeouts(50*time.Millisecond, 2*time.Second))
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(NodeConfig{ID: fmt.Sprintf("node%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The slow failure detector also slows initial view formation, which
	// gates the first health announcements — settle past it so the
	// baseline converges (anti-entropy repairs any announcement sent
	// before the first view installed).
	c.Settle(5 * time.Second)
	return c
}

// TestHealthPlaneEndToEnd drives the full loop: baseline records
// replicate everywhere; an induced latency breach flips the affected
// node's remote-path record to CRITICAL, which OTHER nodes observe
// through their own directory replica (replicated, not polled); the
// transition is delivered exactly once as a dosgi.health alert; the
// autonomic rule demotes the sick node's replicas in the observers'
// invoker ordering; and after the breach passes everything heals —
// record, alert stream and demotion.
func TestHealthPlaneEndToEnd(t *testing.T) {
	c := newHealthCluster(t)
	nodes := c.Nodes()
	sick, observer := nodes[1], nodes[2]

	// Baseline: every node's replica holds every node's component
	// records, all OK — without ever contacting the subject node.
	components := []string{
		HealthComponentEvents, HealthComponentRemote,
		HealthComponentResources, HealthComponentSLA,
	}
	for _, viewer := range nodes {
		for _, subject := range nodes {
			recs := viewer.Migration().Directory().HealthOn(subject.ID())
			if len(recs) != len(components) {
				t.Fatalf("%s sees %d health records for %s: %+v",
					viewer.ID(), len(recs), subject.ID(), recs)
			}
			for i, rec := range recs {
				if rec.Component != components[i] || rec.Status != health.StatusOK {
					t.Fatalf("%s baseline record %+v", viewer.ID(), rec)
				}
			}
		}
	}

	// A dosgi.health subscriber on the observer hears the resync snapshot
	// then live alerts for the remote component.
	var alerts []remote.ServiceEvent
	sub, err := observer.SubscribeHealth(HealthComponentRemote, func(ev remote.ServiceEvent) {
		alerts = append(alerts, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c.Settle(200 * time.Millisecond)
	if len(alerts) != 3 {
		t.Fatalf("resync snapshot alerts = %+v", alerts)
	}
	for _, ev := range alerts {
		if ev.Type != remote.ServiceRegistered || ev.Addr != "OK" {
			t.Fatalf("snapshot alert %+v", ev)
		}
	}
	alerts = alerts[:0]

	// Two greeter replicas; warm the sick node's call path.
	exportGreeter(t, nodes[2])
	exportGreeter(t, sick)
	c.Settle(300 * time.Millisecond)
	call := func() {
		sick.InvokeRemote("greeter", "Greet", []any{"x"}, func([]any, error) {})
	}
	call()
	c.Settle(50 * time.Millisecond)

	// The breach: partition the sick node from replica node02 so calls
	// routed there burn the 100ms attempt timeout before failing over to
	// the local replica. Short of the 2s failure-detector window — no
	// view change, pure latency — and node00, the group coordinator
	// sequencing directory broadcasts, stays reachable from everyone, so
	// the record replicates DURING the breach.
	c.Network().Partition(nodes[2].ID(), sick.ID())
	for i := 0; i < 5; i++ {
		call()
		c.Settle(120 * time.Millisecond)
	}
	c.Network().Heal(nodes[2].ID(), sick.ID())

	// The evaluator tick inside the breach window flipped the sick
	// node's remote record; the replicated directory carried it to the
	// observer. Check before two clean windows (1s) heal it again.
	c.Settle(400 * time.Millisecond)
	recs := observer.Migration().Directory().HealthFor(HealthComponentRemote)
	var sickRec health.Record
	for _, rec := range recs {
		if rec.Node == sick.ID() {
			sickRec = rec
		}
	}
	if sickRec.Status != health.StatusCritical || sickRec.Cause != "call-p99" {
		t.Fatalf("observer's replica of the sick record = %+v", sickRec)
	}

	// The transition arrived as exactly one MODIFIED alert.
	criticals := 0
	for _, ev := range alerts {
		if ev.Type == remote.ServiceModified && ev.Node == sick.ID() && ev.Addr == "CRITICAL" {
			criticals++
		}
	}
	if criticals != 1 {
		t.Fatalf("CRITICAL alerts for %s = %d, events: %+v", sick.ID(), criticals, alerts)
	}

	// The autonomic loop demoted the sick node's replicas to last choice
	// in the OBSERVER's invoker (closed loop over replicated state).
	if !observer.Invoker().IsDemoted(sick.RemoteAddr()) {
		t.Fatal("observer did not demote the CRITICAL node's replica")
	}

	// Heal: quiet windows clear the record, the heal alert flows, the
	// demotion lifts.
	c.Settle(3 * time.Second)
	recs = observer.Migration().Directory().HealthFor(HealthComponentRemote)
	for _, rec := range recs {
		if rec.Status != health.StatusOK {
			t.Fatalf("record did not heal: %+v", rec)
		}
	}
	healed := 0
	for _, ev := range alerts {
		if ev.Type == remote.ServiceModified && ev.Node == sick.ID() && ev.Addr == "OK" {
			healed++
		}
	}
	if healed != 1 {
		t.Fatalf("heal alerts = %d, events: %+v", healed, alerts)
	}
	if observer.Invoker().IsDemoted(sick.RemoteAddr()) {
		t.Fatal("demotion survived the heal")
	}
}

// TestHealthRecordsPrunedOnCrash: a crashed node's health records vanish
// from every survivor's replica (dead-holder pruning), and the alert
// stream reports the withdrawal — no phantom health for dead nodes.
func TestHealthRecordsPrunedOnCrash(t *testing.T) {
	c := newCluster(t, 3)
	nodes := c.Nodes()
	victim, survivor := nodes[0], nodes[2]

	var alerts []remote.ServiceEvent
	sub, err := survivor.SubscribeHealth("", func(ev remote.ServiceEvent) {
		alerts = append(alerts, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c.Settle(200 * time.Millisecond)
	alerts = alerts[:0]

	if err := c.Crash(victim.ID()); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)

	if recs := survivor.Migration().Directory().HealthOn(victim.ID()); len(recs) != 0 {
		t.Fatalf("phantom health for crashed node: %+v", recs)
	}
	gone := make(map[string]bool)
	for _, ev := range alerts {
		if ev.Type == remote.ServiceUnregistering && ev.Node == victim.ID() {
			gone[ev.Service] = true
		}
	}
	if len(gone) != 4 {
		t.Fatalf("withdrawal alerts for crashed node's components = %v, events: %+v", gone, alerts)
	}
}

// TestSteadyHealthTickReusesSubjects: once the records are replicated, a
// health tick whose records did not change builds no subject. What it
// allocates is the directory's record listing and the subject slice,
// however many records there are (it was two maps, two closures, an id
// string and an env per record).
func TestSteadyHealthTickReusesSubjects(t *testing.T) {
	c := newCluster(t, 4)
	n := c.Nodes()[0]
	subjects := n.healthSubjects()
	if len(subjects) != 3*4 { // three other nodes, four components each
		t.Fatalf("%d subjects, want 12", len(subjects))
	}
	allocs := testing.AllocsPerRun(100, func() { subjects = n.healthSubjects() })
	t.Logf("steady health tick over %d records: %.0f allocations", len(subjects), allocs)
	if allocs > 3 {
		t.Fatalf("steady health tick allocated %.0f times, want at most 3", allocs)
	}
	if env := subjects[0].Env.(*policy.MapEnv); env.Vars["health.node"] == n.ID() {
		t.Fatalf("a subject for the node's own record: %+v", env.Vars)
	}
}

// TestSteadyHealthPolicyTickAllocations: a steady health tick on one
// node of a 4-node cluster (12 remote records, two rules) allocates the
// subjects' listing (three, see TestSteadyHealthTickReusesSubjects) and
// the engine's copy of its rules, and nothing per rule and subject: the
// engine keys its state by (rule, subject) and reuses its liveness set,
// and selectors carry their dotted path from parse time.
func TestSteadyHealthPolicyTickAllocations(t *testing.T) {
	c := newCluster(t, 4)
	eng := c.Nodes()[0].healthCtl.Engine()
	eng.TickNow()
	allocs := testing.AllocsPerRun(100, eng.TickNow)
	t.Logf("steady health policy tick: %.0f allocations", allocs)
	if allocs > 4 {
		t.Fatalf("steady health policy tick allocated %.0f times, want at most 4", allocs)
	}
}
