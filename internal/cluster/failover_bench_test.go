package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dosgi/internal/core"
)

const failoverBenchNodes = 4

// buildFailoverCluster is the fixed part of a failover round: a fresh
// cluster of failoverBenchNodes nodes with a stable membership, and the
// ticker bundle exporting svc.<instance> from every instance.
func buildFailoverCluster(tb testing.TB, seed int64) (*Cluster, []*Node) {
	tb.Helper()
	c := New(seed)
	c.Definitions().MustAdd("app:ticker", tickerDefinitionAs(func(inst string) string { return "svc." + inst }))
	nodes := make([]*Node, failoverBenchNodes)
	for i := range nodes {
		n, err := c.AddNode(NodeConfig{ID: fmt.Sprintf("n%d", i)})
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = n
	}
	c.Settle(time.Second)
	return c, nodes
}

// TestClusterBuildAllocation: building a 4-node cluster and settling its
// membership allocates for what the nodes do, not for span rings sized for
// traffic they have not seen (eager rings alone were ~1.3 MiB per node).
func TestClusterBuildAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, _ := buildFailoverCluster(t, 1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("4-node build + 1 s settle: %d KiB, %d mallocs", got>>10, after.Mallocs-before.Mallocs)
	if got >= 3<<19 {
		t.Fatalf("4-node build + settle allocated %d KiB, want < 1.5 MiB", got>>10)
	}
}

// BenchmarkFailoverRound is one round of the paper's headline path, as the
// repository benchmark's instance_failover workload runs it: build 4
// nodes, deploy 16 exporting instances on one, crash it, and settle until
// every instance answers from a survivor. -benchmem gives the exact bytes
// and mallocs per round.
func BenchmarkFailoverRound(b *testing.B) {
	const k = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, nodes := buildFailoverCluster(b, int64(i+1))
		victim, observer := nodes[0], nodes[1]
		for j := 0; j < k; j++ {
			d := tickerTenant(fmt.Sprintf("inst-%02d", j))
			d.Resources.CPUMillicores, d.Resources.MemoryBytes = 100, 64<<20
			if err := c.Deploy(victim.ID(), d); err != nil {
				b.Fatal(err)
			}
		}
		c.Settle(500 * time.Millisecond) // checkpoints on the SAN, endpoints announced
		crashAt := c.Now()
		if err := c.Crash(victim.ID()); err != nil {
			b.Fatal(err)
		}
		answered := make(map[string]bool, k)
		for len(answered) < k {
			if c.Now()-crashAt > 3*time.Second {
				b.Fatalf("round %d: %d of %d instances answered from a survivor", i, len(answered), k)
			}
			for j := 0; j < k; j++ {
				id := fmt.Sprintf("inst-%02d", j)
				observer.InvokeRemote("svc."+id, "Tick", []any{int64(j)}, func(res []any, err error) {
					if err == nil && len(res) == 1 && res[0] == fmt.Sprintf("tick %d from %s", j, id) {
						answered[id] = true
					}
				})
			}
			c.Settle(8 * time.Millisecond)
		}
		for id := range answered {
			if _, inst, ok := c.FindInstance(core.InstanceID(id)); !ok || inst.State() != core.InstanceRunning {
				b.Fatalf("round %d: %s is not running on a survivor", i, id)
			}
		}
	}
}
