package experiments

import (
	"testing"
	"time"

	"dosgi/internal/migrate"
)

func TestE1Shapes(t *testing.T) {
	rows := E1ArchitectureComparison(8)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	multi, same, vosgiRow := rows[0], rows[1], rows[2]
	// Paper claim: multi-JVM "introduces much overhead".
	if multi.MemoryMB <= same.MemoryMB {
		t.Errorf("multi-jvm memory %.1f <= same-jvm %.1f", multi.MemoryMB, same.MemoryMB)
	}
	if same.MemoryMB <= vosgiRow.MemoryMB {
		t.Errorf("same-jvm memory %.1f <= vosgi %.1f (shared bundles must save)", same.MemoryMB, vosgiRow.MemoryMB)
	}
	if multi.StartupTime <= same.StartupTime {
		t.Errorf("multi-jvm startup %v <= same-jvm %v", multi.StartupTime, same.StartupTime)
	}
	// Remote management costs more than in-process.
	if multi.MgmtOp <= vosgiRow.MgmtOp {
		t.Errorf("remote mgmt %v <= local %v", multi.MgmtOp, vosgiRow.MgmtOp)
	}
}

func TestE2SharedBeatsDuplicated(t *testing.T) {
	r, err := E2SharedServices(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.BundlesShared >= r.BundlesDuplicated {
		t.Errorf("shared bundles %d >= duplicated %d", r.BundlesShared, r.BundlesDuplicated)
	}
	if r.MemSharedMB >= r.MemDuplicatedMB {
		t.Errorf("shared mem %.1f >= duplicated %.1f", r.MemSharedMB, r.MemDuplicatedMB)
	}
	if !r.SharedIdentity {
		t.Error("delegated class identity differs across instances")
	}
}

func TestE3MigrationTimings(t *testing.T) {
	r, err := E3Migration()
	if err != nil {
		t.Fatal(err)
	}
	if r.PlannedDowntime <= 0 {
		t.Error("planned migration downtime not measured")
	}
	if r.CrashFailover <= r.PlannedDowntime {
		t.Errorf("crash failover %v should exceed planned downtime %v (adds detection)",
			r.CrashFailover, r.PlannedDowntime)
	}
	// §3.2 claim: redeploy cost comparable to a normal startup.
	if r.PlannedDowntime > 20*r.RestartInPlace+time.Second {
		t.Errorf("planned downtime %v not comparable to restart %v", r.PlannedDowntime, r.RestartInPlace)
	}
	if !r.EndpointFollowed {
		t.Error("endpoint did not follow the instance")
	}
}

func TestE4ScaleOut(t *testing.T) {
	rows, err := E4IpvsScaleOut([]int{1, 2, 4}, 100, 30*time.Millisecond, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Offered load (100 req/s × 30ms = 3 cores) saturates 1 replica
	// (1 core); throughput must grow with replicas.
	if rows[1].Throughput <= rows[0].Throughput*1.3 {
		t.Errorf("2 replicas %.1f req/s not >> 1 replica %.1f", rows[1].Throughput, rows[0].Throughput)
	}
	if rows[2].Throughput <= rows[1].Throughput*1.2 {
		t.Errorf("4 replicas %.1f req/s not >> 2 replicas %.1f", rows[2].Throughput, rows[1].Throughput)
	}
	if rows[2].P99 >= rows[0].P99 {
		t.Errorf("p99 with 4 replicas %v >= with 1 replica %v", rows[2].P99, rows[0].P99)
	}
}

func TestE5EstimatorUndercounts(t *testing.T) {
	rows := E5MonitoringAccuracy(50 * time.Millisecond)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	longErr, shortErr := rows[0].ErrorPct, rows[1].ErrorPct
	if longErr < 0 || longErr > 10 {
		t.Errorf("long-task error %.1f%% out of range", longErr)
	}
	if shortErr <= longErr {
		t.Errorf("short-task error %.1f%% should exceed long-task %.1f%%", shortErr, longErr)
	}
}

func TestE6EnforcementHelpsVictim(t *testing.T) {
	r, err := E6SLAEnforcement()
	if err != nil {
		t.Fatal(err)
	}
	if r.HogThrottledTo != 500 {
		t.Errorf("hog throttled to %d, want 500", r.HogThrottledTo)
	}
	if r.VictimP99WithPolicy >= r.VictimP99NoPolicy {
		t.Errorf("policy did not improve victim p99: %v vs %v",
			r.VictimP99WithPolicy, r.VictimP99NoPolicy)
	}
	if r.TimeToEnforce <= 0 || r.TimeToEnforce > 2*time.Second {
		t.Errorf("time to enforce = %v", r.TimeToEnforce)
	}
}

func TestE7ConsolidationPowersDown(t *testing.T) {
	r, err := E7Consolidation(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodesAfter != 1 {
		t.Errorf("nodes after = %d, want 1", r.NodesAfter)
	}
	if !r.AllInstancesUp {
		t.Error("instances lost during consolidation")
	}
	if r.MemAfterMB >= r.MemBeforeMB {
		t.Errorf("memory after %.1f >= before %.1f", r.MemAfterMB, r.MemBeforeMB)
	}
}

func TestE8Degradation(t *testing.T) {
	best, err := E8GracefulDegradation(4, 6, migrate.BestEffort, 2)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := E8GracefulDegradationSized(4, 6, 700, migrate.Strict, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Best effort keeps everything running.
	last := best[len(best)-1]
	if last.Running != last.Total {
		t.Errorf("best-effort running %d/%d after crashes", last.Running, last.Total)
	}
	// Strict refuses some once capacity binds (6 × 600mc on 2 nodes × 2000mc).
	lastStrict := strict[len(strict)-1]
	if lastStrict.Unplaceable == 0 {
		t.Errorf("strict mode refused nothing: %+v", lastStrict)
	}
}

func TestE9Scales(t *testing.T) {
	rows, err := E9GCSCharacteristics([]int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ViewChangeTime <= 0 || r.ViewChangeTime > time.Second {
			t.Errorf("view change %v at size %d", r.ViewChangeTime, r.Members)
		}
		if r.BroadcastTime <= 0 || r.BroadcastTime > 100*time.Millisecond {
			t.Errorf("broadcast %v at size %d", r.BroadcastTime, r.Members)
		}
	}
}

func TestA2Schedulers(t *testing.T) {
	rows, err := A2IpvsSchedulers(100, 25*time.Millisecond, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var rr, wrr, lc = rows[0], rows[1], rows[2]
	// rr splits evenly despite the slow node; wrr and lc shift work to the
	// fast node and should win on tail latency.
	if wrr.FastServed <= wrr.SlowServed {
		t.Errorf("wrr did not favour the fast backend: %d vs %d", wrr.FastServed, wrr.SlowServed)
	}
	if wrr.P99 >= rr.P99 && lc.P99 >= rr.P99 {
		t.Errorf("neither wrr (%v) nor lc (%v) beat rr (%v) at p99", wrr.P99, lc.P99, rr.P99)
	}
}

func TestA3Tradeoff(t *testing.T) {
	rows, err := A3FailureDetector([]time.Duration{
		100 * time.Millisecond, 400 * time.Millisecond, 1600 * time.Millisecond,
	}, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	// Longer timeouts detect slower.
	if rows[0].DetectionLatency >= rows[2].DetectionLatency {
		t.Errorf("detection latency not increasing: %v vs %v",
			rows[0].DetectionLatency, rows[2].DetectionLatency)
	}
	// Shorter timeouts suspect falsely more often under loss.
	if rows[0].FalseSuspicions <= rows[2].FalseSuspicions {
		t.Errorf("false suspicions not decreasing: %d vs %d",
			rows[0].FalseSuspicions, rows[2].FalseSuspicions)
	}
	// At the default timeout (4 heartbeats), client evidence does not
	// raise false suspicions: the probes refute it on a live member.
	for _, loss := range []float64{0.05, 0.30} {
		rows, err := A3FailureDetector([]time.Duration{100 * time.Millisecond}, loss)
		if err != nil {
			t.Fatal(err)
		}
		if without, with := rows[0], rows[1]; with.FalseSuspicions > without.FalseSuspicions {
			t.Errorf("loss %.2f: evidence raised false suspicions from %d to %d",
				loss, without.FalseSuspicions, with.FalseSuspicions)
		}
	}
}

func TestA4TotalOrderNeverDiverges(t *testing.T) {
	r, err := A4BroadcastOrdering(10)
	if err != nil {
		t.Fatal(err)
	}
	if r.DivergentTotal != 0 {
		t.Errorf("total order diverged %d/%d times", r.DivergentTotal, r.Trials)
	}
	if r.DivergentFIFO == 0 {
		t.Errorf("fifo never diverged in %d trials; ablation shows nothing", r.Trials)
	}
}

// TestE13PacedFillConverges: one record per scheduler turn fills every
// replica (the experiment errors out if any replica stays incomplete),
// and the counters are consistent: the hottest node's traffic is part of
// the cluster total.
func TestE13PacedFillConverges(t *testing.T) {
	rows, err := E13Directory([]int{2000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if r := rows[0]; r.PerTurn != 1 || r.Converge <= 0 || r.MaxNodeSent <= 0 || r.TotalSent < r.MaxNodeSent {
		t.Errorf("degenerate row %+v", r)
	}
}

// TestE13BurstsBatched pins E13's burst rows: 1,000 records per
// scheduler turn. The GCS batches each member's burst into one order
// request, so the group sends far fewer messages than records.
func TestE13BurstsBatched(t *testing.T) {
	rows, err := E13DirectoryBursts([]int{2000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.PerTurn != 1000 || r.Converge <= 0 || r.MaxNodeSent <= 0 || r.TotalSent < r.MaxNodeSent {
		t.Errorf("degenerate row %+v", r)
	}
	if r.TotalSent*10 >= int64(r.Endpoints) {
		t.Errorf("sent %d messages for %d records: bursts not batched", r.TotalSent, r.Endpoints)
	}
}
