package cluster

import (
	"testing"
	"time"

	"dosgi/internal/migrate"
)

// defaultHeartbeat is the gcs default the clusters below run with.
const defaultHeartbeat = 50 * time.Millisecond

// crashToNodeLost deploys an instance on victim (NODE_LOST names a node
// that hosted one), crashes victim off the heartbeat phase and returns
// the virtual time from the crash to the first NODE_LOST on a survivor;
// afterCrash, when set, runs right after the crash.
func crashToNodeLost(t *testing.T, c *Cluster, victim string, afterCrash func()) time.Duration {
	t.Helper()
	if err := c.Deploy(victim, tenant("shop-a", "", 0)); err != nil {
		t.Fatal(err)
	}
	c.Settle(517 * time.Millisecond)
	var lostAt time.Duration
	for _, n := range c.Nodes() {
		if n.ID() != victim {
			n.Migration().OnEvent(func(ev migrate.Event) {
				if ev.Type == migrate.EventNodeLost && lostAt == 0 {
					lostAt = c.Now()
				}
			})
		}
	}
	crashAt := c.Now()
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if afterCrash != nil {
		afterCrash()
	}
	c.Settle(time.Second)
	if lostAt == 0 {
		t.Fatalf("no NODE_LOST within 1s of crashing %s", victim)
	}
	return lostAt - crashAt
}

// evidenceTotals sums the evidence counters of every powered node.
func evidenceTotals(t *testing.T, c *Cluster) (suspicions, exclusions int64) {
	t.Helper()
	for _, n := range c.Nodes() {
		if !n.Powered() {
			continue
		}
		attrs, ok := c.Metrics().Read("node:" + n.ID())
		if !ok {
			t.Fatalf("no node provider for %s", n.ID())
		}
		suspicions += attrs["gcsSuspicions"].(int64)
		exclusions += attrs["gcsEvidenceExclusions"].(int64)
	}
	return suspicions, exclusions
}

// TestCrashWithoutClientTrafficDetectsAtFailTimeout: with no call to
// time out there is no evidence, and NODE_LOST comes exactly when the
// heartbeat deadline alone gave it before evidence existed.
func TestCrashWithoutClientTrafficDetectsAtFailTimeout(t *testing.T) {
	c := newCluster(t, 4)
	// 233 ms: FailTimeout (200 ms) after the victim's last heartbeat, on
	// the first failure check past it.
	if got, want := crashToNodeLost(t, c, "node01", nil), 233*time.Millisecond; got != want {
		t.Fatalf("crash to NODE_LOST %v, want %v", got, want)
	}
	if suspicions, _ := evidenceTotals(t, c); suspicions != 0 {
		t.Fatalf("%d suspicions without a client call", suspicions)
	}
}

// TestTimedOutCallDetectsCrash: a client calling the victim when it
// crashes times out after RemoteCallTimeout, and its evidence brings
// NODE_LOST three probe spacings later. The subtest keeps the name it
// had when a sharded layout ran beside the single directory group.
func TestTimedOutCallDetectsCrash(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		c := newCluster(t, 4)
		nodes := c.Nodes()
		victim, client := nodes[0], nodes[2] // the coordinator crashes
		exportGreeter(t, victim)
		c.Settle(500 * time.Millisecond)
		call := func() {
			client.InvokeRemote("greeter", "Greet", []any{"x"}, func([]any, error) {})
		}
		call() // a pooled connection before the crash

		bound := RemoteCallTimeout + 3*defaultHeartbeat/10 + 2*time.Millisecond
		got := crashToNodeLost(t, c, victim.ID(), call)
		if got > bound {
			t.Fatalf("crash to NODE_LOST %v, want at most %v", got, bound)
		}
		t.Logf("crash to NODE_LOST %v (bound %v)", got, bound)
		if suspicions, exclusions := evidenceTotals(t, c); suspicions < 1 || exclusions != 1 {
			t.Fatalf("%d suspicions and %d exclusions, want at least 1 and exactly 1", suspicions, exclusions)
		}
	})
}

// TestPartitionedClientKeepsLiveMember: a client cut off from a live
// member times out on it and raises evidence, but the member that would
// coordinate without it still hears it, so it stays in every view.
func TestPartitionedClientKeepsLiveMember(t *testing.T) {
	c := newCluster(t, 4)
	nodes := c.Nodes()
	x, client := nodes[2], nodes[3]
	exportGreeter(t, x)
	c.Settle(500 * time.Millisecond)
	views := make([]int, len(nodes))
	for i, n := range nodes {
		views[i] = n.Member().ViewChanges()
	}
	c.Network().Partition(client.ID(), x.ID())
	timeouts := 0
	for i := 0; i < 100; i++ {
		client.InvokeRemote("greeter", "Greet", []any{"x"}, func(_ []any, err error) {
			if err != nil {
				timeouts++
			}
		})
		c.Settle(10 * time.Millisecond)
	}
	c.Settle(time.Second)

	suspicions, exclusions := evidenceTotals(t, c)
	if timeouts == 0 || suspicions == 0 || exclusions != 0 {
		t.Fatalf("%d timed-out calls, %d suspicions, %d exclusions; want calls to time out, evidence, no exclusion",
			timeouts, suspicions, exclusions)
	}
	for i, n := range nodes {
		if got := n.Member().ViewChanges(); got != views[i] || !n.Member().HasNode(x.ID()) {
			t.Fatalf("%s: %d view changes, view %v; want none and %s kept", n.ID(), got-views[i], n.Member().View(), x.ID())
		}
	}
}
