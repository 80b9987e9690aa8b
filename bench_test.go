// Package dosgi's root benchmark harness: one benchmark per experiment of
// internal/experiments (E1–E9 reproduce the paper's figures and measurable
// claims, E12 measures event push on real TCP, E13 directory fill, A2–A4
// are design ablations), plus the A1 class-lookup ablation and the GCS
// total-order path. Simulated experiments run on the deterministic
// discrete-event simulator, so benchmark wall-time measures harness cost
// while the *reported metrics* (ReportMetric) carry the experiment
// results in simulated units. Run them, or the paper experiments as
// tables, with:
//
//	go test -run '^$' -bench=. -benchmem .
//	go run ./cmd/cluster-sim -experiment all
package dosgi_test

import (
	"fmt"
	"testing"
	"time"

	"dosgi/internal/experiments"
	"dosgi/internal/gcs"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

func BenchmarkE1ArchitectureComparison(b *testing.B) {
	var rows []experiments.E1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E1ArchitectureComparison(16)
	}
	b.ReportMetric(rows[0].MemoryMB, "multijvm-MB")
	b.ReportMetric(rows[2].MemoryMB, "vosgi-MB")
	b.ReportMetric(float64(rows[0].MgmtOp.Microseconds()), "remote-mgmt-us")
}

func BenchmarkE2SharedServices(b *testing.B) {
	var res experiments.E2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.E2SharedServices(8, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.BundlesDuplicated), "bundles-duplicated")
	b.ReportMetric(float64(res.BundlesShared), "bundles-shared")
}

func BenchmarkE3MigrationIPTakeover(b *testing.B) {
	var res experiments.E3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.E3Migration()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.PlannedDowntime.Milliseconds()), "planned-downtime-ms")
	b.ReportMetric(float64(res.CrashFailover.Milliseconds()), "crash-failover-ms")
	b.ReportMetric(float64(res.RestartInPlace.Milliseconds()), "restart-ms")
}

func BenchmarkE4IpvsScaleOut(b *testing.B) {
	var rows []experiments.E4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E4IpvsScaleOut([]int{1, 2, 4}, 100, 30*time.Millisecond, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Throughput, "replicas1-rps")
	b.ReportMetric(rows[len(rows)-1].Throughput, "replicas4-rps")
}

func BenchmarkE5MonitoringAccuracy(b *testing.B) {
	var rows []experiments.E5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.E5MonitoringAccuracy(50 * time.Millisecond)
	}
	b.ReportMetric(rows[0].ErrorPct, "longtask-err-pct")
	b.ReportMetric(rows[1].ErrorPct, "shorttask-err-pct")
}

func BenchmarkE6SLAEnforcement(b *testing.B) {
	var res experiments.E6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.E6SLAEnforcement()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.VictimP99NoPolicy.Milliseconds()), "victim-p99-nopolicy-ms")
	b.ReportMetric(float64(res.VictimP99WithPolicy.Milliseconds()), "victim-p99-policy-ms")
	b.ReportMetric(float64(res.TimeToEnforce.Milliseconds()), "time-to-enforce-ms")
}

func BenchmarkE7Consolidation(b *testing.B) {
	var res experiments.E7Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.E7Consolidation(3, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.NodesBefore), "nodes-before")
	b.ReportMetric(float64(res.NodesAfter), "nodes-after")
}

func BenchmarkE8GracefulDegradation(b *testing.B) {
	var rows []experiments.E8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E8GracefulDegradation(4, 6, migrate.BestEffort, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.Running), "running-after-2-crashes")
}

func BenchmarkE9GCSCharacteristics(b *testing.B) {
	var rows []experiments.E9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E9GCSCharacteristics([]int{2, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[len(rows)-1].ViewChangeTime.Milliseconds()), "viewchange16-ms")
	b.ReportMetric(float64(rows[len(rows)-1].BroadcastTime.Milliseconds()), "broadcast16-ms")
}

// BenchmarkTotalOrder measures the GCS total-order broadcast path on its
// own: a 3-member group on sim.Engine, senders rotating, one op = one
// broadcast delivered on all three members, so ns/op, B/op and allocs/op
// are per delivered message. Each burst of broadcasts is submitted in one
// scheduler turn and the engine steps until all of it is delivered:
// burst=256 is the loaded path, where a member's broadcasts of one turn
// share one order request; burst=1 is the lone broadcast, which pays the
// whole path alone. Every 256 broadcasts the engine runs one heartbeat
// interval, whose acks keep the coordinator's retransmission log pruned.
// msgs/op counts the wire messages the members sent, heartbeats
// included. dedup_entries is the members' dedup state after the run (one
// record per sender plus any id runs held above a gap, summed); it must
// not grow with b.N.
func BenchmarkTotalOrder(b *testing.B) {
	for _, burst := range []int{256, 1} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) { benchTotalOrder(b, burst) })
	}
}

func benchTotalOrder(b *testing.B, burst int) {
	eng := sim.New(1)
	net := netsim.NewNetwork(eng, netsim.WithLatency(time.Millisecond))
	dir := gcs.NewDirectory()
	members := make([]*gcs.Member, 3)
	delivered := 0
	for i := range members {
		id := fmt.Sprintf("node%02d", i)
		ip := netsim.IP("ip-" + id)
		nic := net.AttachNode(id)
		if err := net.AssignIP(ip, id); err != nil {
			b.Fatal(err)
		}
		m, err := gcs.NewMember(eng, gcs.Config{NodeID: id, Addr: netsim.Addr{IP: ip, Port: 7000}, NIC: nic, Directory: dir})
		if err != nil {
			b.Fatal(err)
		}
		m.OnDeliver(func(gcs.Message) { delivered++ })
		members[i] = m
	}
	for _, m := range members {
		if err := m.Start(); err != nil {
			b.Fatal(err)
		}
	}
	eng.RunFor(2 * time.Second)
	sentMsgs := func() (n int64) {
		for _, m := range members {
			n += m.Stats().MsgsSent
		}
		return n
	}
	msgs0 := sentMsgs()
	var body any = "op"
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		for i := 0; i < burst && sent < b.N; i++ {
			if err := members[sent%len(members)].Broadcast(body, gcs.Total); err != nil {
				b.Fatal(err)
			}
			sent++
		}
		for delivered < len(members)*sent {
			if !eng.Step() {
				b.Fatal("engine drained before delivery")
			}
		}
		if sent%256 < burst {
			eng.RunFor(50 * time.Millisecond)
		}
	}
	b.StopTimer()
	if delivered != len(members)*b.N {
		b.Fatalf("%d deliveries for %d broadcasts to %d members", delivered, b.N, len(members))
	}
	entries := 0
	for _, m := range members {
		st := m.Stats()
		entries += st.DedupSenders + st.DedupHeld
	}
	b.ReportMetric(float64(sentMsgs()-msgs0)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(entries), "dedup_entries")
}

// BenchmarkE12EventBackpressure measures event delivery with one fast
// and one slow subscriber on real TCP, before and after credit-based
// backpressure: the fast subscriber's throughput and p99 notify latency
// must survive the slow peer, while the slow subscriber's client-side
// push queue shrinks from "the whole burst" to "the credit window".
// Latencies here are real microseconds (wall clock), not simulated.
func BenchmarkE12EventBackpressure(b *testing.B) {
	var rows []experiments.E12Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.E12EventBackpressure(2000, 64, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Throughput, "nobp-fast-eps")
	b.ReportMetric(float64(rows[0].P99.Microseconds()), "nobp-fast-p99-us")
	b.ReportMetric(float64(rows[0].SlowPeakQueue), "nobp-slow-peak-queue")
	b.ReportMetric(rows[1].Throughput, "bp-fast-eps")
	b.ReportMetric(float64(rows[1].P99.Microseconds()), "bp-fast-p99-us")
	b.ReportMetric(float64(rows[1].SlowPeakQueue), "bp-slow-peak-queue")
}

// BenchmarkE13Directory measures directory convergence on the
// deterministic simulator: convergence time and the hottest node's GCS
// message count while the endpoint population fills, paced and in
// bursts, over a 10k-endpoint population on 8 nodes. Metrics are
// simulated units, so they are identical on every machine.
func BenchmarkE13Directory(b *testing.B) {
	var paced, bursts []experiments.E13Row
	for i := 0; i < b.N; i++ {
		var err error
		if paced, err = experiments.E13Directory([]int{10000}, 8); err != nil {
			b.Fatal(err)
		}
		if bursts, err = experiments.E13DirectoryBursts([]int{10000}, 8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(paced[0].MaxNodeSent), "max-node-sent")
	b.ReportMetric(float64(paced[0].Converge.Microseconds()), "converge-us")
	b.ReportMetric(float64(bursts[0].MaxNodeSent), "bursts-max-node-sent")
}

// BenchmarkA1DelegationLookup measures class lookup cost: local class,
// wired import, and parent delegation through a virtual framework (the
// ablation behind Figure 4's lookup chain).
func BenchmarkA1DelegationLookup(b *testing.B) {
	defs := module.NewDefinitionRegistry()
	defs.MustAdd("base", &module.Definition{
		ManifestText: "Bundle-SymbolicName: base\nBundle-Version: 1.0.0\nExport-Package: base.api\n",
		Classes:      map[string]any{"base.api.Svc": "svc"},
	})
	defs.MustAdd("app", &module.Definition{
		ManifestText: "Bundle-SymbolicName: app\nBundle-Version: 1.0.0\nImport-Package: base.api\n",
		Classes:      map[string]any{"app.Main": "main"},
	})
	host := module.New(module.WithDefinitions(defs))
	if err := host.Start(); err != nil {
		b.Fatal(err)
	}
	baseBundle, err := host.InstallBundle("base")
	if err != nil {
		b.Fatal(err)
	}
	if err := baseBundle.Start(); err != nil {
		b.Fatal(err)
	}
	appBundle, err := host.InstallBundle("app")
	if err != nil {
		b.Fatal(err)
	}
	if err := appBundle.Start(); err != nil {
		b.Fatal(err)
	}

	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := appBundle.LoadClass("app.Main"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wired-import", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := appBundle.LoadClass("base.api.Svc"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parent-delegation", func(b *testing.B) {
		// The child's bundle carries no Import-Package for base.api, so
		// its lookup misses locally and falls through to the explicit
		// parent delegation — the Figure 4 path.
		defs.MustAdd("app-child", &module.Definition{
			ManifestText: "Bundle-SymbolicName: app.child\nBundle-Version: 1.0.0\n",
			Classes:      map[string]any{"app.child.Main": "main"},
		})
		child := newChildWithDelegation(b, host)
		tb, err := child.InstallBundle("app-child")
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Start(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tb.LoadClass("base.api.Svc"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkA2IpvsSchedulers(b *testing.B) {
	var rows []experiments.A2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.A2IpvsSchedulers(100, 25*time.Millisecond, 4*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].P99.Milliseconds()), "rr-p99-ms")
	b.ReportMetric(float64(rows[1].P99.Milliseconds()), "wrr-p99-ms")
	b.ReportMetric(float64(rows[2].P99.Milliseconds()), "lc-p99-ms")
}

func BenchmarkA3FailureDetector(b *testing.B) {
	var rows []experiments.A3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.A3FailureDetector([]time.Duration{
			100 * time.Millisecond, 400 * time.Millisecond, 1600 * time.Millisecond,
		}, 0.30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].DetectionLatency.Milliseconds()), "t100ms-detect-ms")
	b.ReportMetric(float64(rows[0].FalseSuspicions), "t100ms-false")
	b.ReportMetric(float64(rows[2].DetectionLatency.Milliseconds()), "t1600ms-detect-ms")
	b.ReportMetric(float64(rows[2].FalseSuspicions), "t1600ms-false")
}

func BenchmarkA4BroadcastOrdering(b *testing.B) {
	var res experiments.A4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.A4BroadcastOrdering(5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DivergentFIFO), "fifo-divergent")
	b.ReportMetric(float64(res.DivergentTotal), "total-divergent")
}

// newChildWithDelegation builds a started virtual framework delegating
// base.api to the host. Kept in the benchmark file to avoid an import of
// internal/vosgi in the public harness beyond this ablation.
func newChildWithDelegation(b *testing.B, host *module.Framework) *module.Framework {
	b.Helper()
	vf, err := newVirtual(host)
	if err != nil {
		b.Fatal(err)
	}
	return vf
}
