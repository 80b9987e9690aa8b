package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/module"
)

// newShardedCluster builds an n-node cluster whose replicated directory
// runs over the given number of rendezvous-hashed shard groups.
func newShardedCluster(t *testing.T, n, shards int) *Cluster {
	t.Helper()
	c := New(1, WithDirectoryShards(shards))
	c.Definitions().MustAdd("app:shop", &module.Definition{
		ManifestText: "Bundle-SymbolicName: com.shop\nBundle-Version: 1.0.0\n",
		Classes:      map[string]any{"com.shop.Main": "shop-main"},
	})
	for i := 0; i < n; i++ {
		if _, err := c.AddNode(NodeConfig{ID: fmt.Sprintf("node%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(2 * time.Second)
	return c
}

// TestShardedClusterEndToEnd runs the full stack over a 4-shard
// directory: exported endpoints hashing across all shard groups
// replicate to every node, remote invocation resolves through the
// sharded directory, a node crash triggers both instance failover (main
// group) and per-shard dead-holder pruning, and the metrics plane
// reports the shard layout.
func TestShardedClusterEndToEnd(t *testing.T) {
	const shards = 4
	c := newShardedCluster(t, 3, shards)
	nodes := c.Nodes()

	// Export enough services from node00 to cover every shard.
	router := nodes[0].Migration()
	if router.ShardCount() != shards {
		t.Fatalf("ShardCount = %d, want %d", router.ShardCount(), shards)
	}
	const svcCount = 16
	hit := make(map[int]bool)
	for i := 0; i < svcCount; i++ {
		name := fmt.Sprintf("greeter-%02d", i)
		hit[router.ShardOf(name)] = true
		if _, err := nodes[0].ExportService(name, "app.Greeter", greeter{node: nodes[0].ID()}); err != nil {
			t.Fatal(err)
		}
	}
	if len(hit) != shards {
		t.Fatalf("test services cover only %d of %d shards", len(hit), shards)
	}
	c.Settle(500 * time.Millisecond)

	// Every node's directory converged on every shard's records, and all
	// nodes agree on placement.
	for _, n := range nodes {
		for i := 0; i < svcCount; i++ {
			name := fmt.Sprintf("greeter-%02d", i)
			eps := n.Migration().Directory().EndpointsFor(name)
			if len(eps) != 1 || eps[0].Node != nodes[0].ID() {
				t.Fatalf("node %s directory for %s = %+v", n.ID(), name, eps)
			}
			if got, want := n.Migration().ShardOf(name), router.ShardOf(name); got != want {
				t.Fatalf("node %s routes %s to shard %d, node00 to %d", n.ID(), name, got, want)
			}
		}
	}

	// Remote invocation resolves through the sharded directory.
	done, want := false, "hello shard from node00"
	nodes[2].InvokeRemote("greeter-07", "Greet", []any{"shard"}, func(res []any, err error) {
		if err != nil {
			t.Errorf("remote call: %v", err)
			return
		}
		if len(res) != 1 || res[0] != want {
			t.Errorf("results = %v, want %q", res, want)
		}
		done = true
	})
	c.Settle(100 * time.Millisecond)
	if !done {
		t.Fatal("remote call never completed")
	}

	// The metrics plane reports the shard layout.
	snap := c.Metrics().Snapshot()
	dir, ok := snap["directory:"+nodes[2].ID()]
	if !ok {
		t.Fatalf("no directory metrics in %v", snap)
	}
	if got := dir["shards"]; got != int64(shards) {
		t.Fatalf("directory shards metric = %v, want %d", got, shards)
	}

	// A deployed instance fails over after a crash (instance records ride
	// the main group), and the crashed node's endpoint records vanish
	// from EVERY shard group via per-shard dead-holder pruning.
	if err := c.Deploy("node01", tenant("shop-a", "10.1.0.1", 80)); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if err := c.Crash(nodes[0].ID()); err != nil {
		t.Fatal(err)
	}
	c.Settle(3 * time.Second)

	node, inst, ok := c.FindInstance("shop-a")
	if !ok || node.ID() == nodes[0].ID() {
		t.Fatalf("failover: found=%v node=%v", ok, node)
	}
	if inst.State() != core.InstanceRunning {
		t.Fatalf("instance state = %v", inst.State())
	}
	for _, id := range []string{"node01", "node02"} {
		n, _ := c.Node(id)
		for i := 0; i < svcCount; i++ {
			name := fmt.Sprintf("greeter-%02d", i)
			if eps := n.Migration().Directory().EndpointsFor(name); len(eps) != 0 {
				t.Fatalf("node %s kept dead holder's endpoint %s: %+v", id, name, eps)
			}
		}
		// Each surviving shard group settled on a 2-member view.
		for s, st := range n.Migration().ShardStats() {
			if st.Members != 2 {
				t.Fatalf("node %s shard %d membership = %d, want 2", id, s, st.Members)
			}
		}
	}
}

// TestShardedCoordinatorsSpread pins the rendezvous placement property
// the perf win rests on: with ranked member ids, the shard groups'
// coordinators must not all collapse onto one node (the single-group
// layout pins every sequencing duty on the lexicographically lowest
// member).
func TestShardedCoordinatorsSpread(t *testing.T) {
	const shards = 8
	c := newShardedCluster(t, 4, shards)
	coords := make(map[string]int)
	for _, n := range c.Nodes() {
		for _, sm := range n.ShardMembers() {
			v := sm.View()
			if len(v.Members) != 4 {
				t.Fatalf("shard view = %+v", v)
			}
		}
	}
	n := c.Nodes()[0]
	for s, sm := range n.ShardMembers() {
		v := sm.View()
		if len(v.Members) == 0 {
			t.Fatalf("shard %d has empty view", s)
		}
		coords[gcs.NodeOf(v.Members[0])]++
	}
	if len(coords) < 2 {
		t.Fatalf("all %d shard coordinators landed on one node: %v", shards, coords)
	}
	t.Logf("coordinator spread over %d shards: %v", shards, coords)
}

// TestDirectoryProviderAttributes pins the directory:<node> metrics
// provider's exact attribute set at 1 and 4 shards: nine int64 counters
// per record family, prefixed with the family name, plus the shard count.
func TestDirectoryProviderAttributes(t *testing.T) {
	var want []string
	for _, family := range []string{"endpoint", "artifact", "health"} {
		for _, counter := range []string{"Puts", "Removes", "Syncs", "Added", "Updated", "Removed", "SilentSyncs", "Pruned", "Filtered"} {
			want = append(want, family+counter)
		}
	}
	want = append(want, "shards")
	sort.Strings(want)
	for _, shards := range []int{1, 4} {
		c := newShardedCluster(t, 2, shards)
		attrs, ok := c.Metrics().Read("directory:" + c.Nodes()[0].ID())
		if !ok {
			t.Fatalf("shards=%d: no directory provider", shards)
		}
		got := make([]string, 0, len(attrs))
		for name, v := range attrs {
			got = append(got, name)
			if _, ok := v.(int64); !ok {
				t.Fatalf("shards=%d: %s = %T, want int64", shards, name, v)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: attributes\n got %v\nwant %v", shards, got, want)
		}
		if attrs["shards"] != int64(shards) {
			t.Fatalf("shards attribute = %v, want %d", attrs["shards"], shards)
		}
	}
}

// TestNodeProviderSumsGCSState pins the node provider's group
// communication attributes: message counts and total-order state sizes
// summed over the main member and every shard member.
func TestNodeProviderSumsGCSState(t *testing.T) {
	for _, shards := range []int{1, 4} {
		c := newShardedCluster(t, 3, shards)
		for _, n := range c.Nodes() {
			var want gcs.MemberStats
			for _, m := range append([]*gcs.Member{n.Member()}, n.ShardMembers()...) {
				st := m.Stats()
				want.MsgsSent += st.MsgsSent
				want.TotalLogSize += st.TotalLogSize
				want.DedupHeld += st.DedupHeld
			}
			attrs, ok := c.Metrics().Read("node:" + n.ID())
			if !ok {
				t.Fatalf("shards=%d: no node provider for %s", shards, n.ID())
			}
			if attrs["dirMsgsSent"] != want.MsgsSent || attrs["gcsTotalLog"] != int64(want.TotalLogSize) ||
				attrs["gcsDedupHeld"] != int64(want.DedupHeld) {
				t.Fatalf("shards=%d %s: attrs %v, want sums %+v", shards, n.ID(), attrs, want)
			}
		}
	}
}
