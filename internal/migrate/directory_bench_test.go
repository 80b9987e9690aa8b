package migrate

import (
	"fmt"
	"testing"
	"time"
)

// The churn population of the repository benchmark's directory_churn
// workload: churnRecords endpoint records spread round-robin over
// churnHolders holders, one record per service.
const (
	churnHolders = 3
	churnRecords = 4096
)

// churnDirectory returns a directory holding the churn population and
// every holder's record set, indexed by holder number.
func churnDirectory() (*Directory, [][]EndpointInfo) {
	d := NewDirectory()
	sets := make([][]EndpointInfo, churnHolders)
	for i := 0; i < churnRecords; i++ {
		h := i % churnHolders
		info := EndpointInfo{Service: fmt.Sprintf("svc-%04d", i), Node: fmt.Sprintf("n%d", h), Addr: fmt.Sprintf("10.0.%d.%d:7100", i>>8, i&0xff)}
		d.PutEndpoint(info)
		sets[h] = append(sets[h], info)
	}
	return d, sets
}

// TestEndpointsForAllocatesOnce: a replica lookup is one probe and one
// copy of the answer.
func TestEndpointsForAllocatesOnce(t *testing.T) {
	d, _ := churnDirectory()
	if n := testing.AllocsPerRun(100, func() { d.EndpointsFor("svc-0042") }); n > 1 {
		t.Fatalf("EndpointsFor allocates %.1f times, want at most 1", n)
	}
}

// TestHolderSyncCostsOnlyItsRecords: a converged sync of one holder's
// 1,000 records costs the same allocations, and at most twice the time,
// whether the other holders hold no records or 64 k.
func TestHolderSyncCostsOnlyItsRecords(t *testing.T) {
	build := func(others int) func() {
		d := NewDirectory()
		own := make([]EndpointInfo, 1000)
		for i := range own {
			own[i] = EndpointInfo{Service: fmt.Sprintf("own-%04d", i), Node: "h", Addr: "10.0.0.1:7100"}
			d.PutEndpoint(own[i])
		}
		for i := 0; i < others; i++ {
			d.PutEndpoint(EndpointInfo{Service: fmt.Sprintf("other-%05d", i), Node: fmt.Sprintf("o%02d", i%64), Addr: "10.0.0.2:7100"})
		}
		return func() {
			if a, u, r := d.ReplaceEndpointsOf("h", own); len(a)+len(u)+len(r) != 0 {
				t.Fatalf("converged sync emitted deltas: +%d ~%d -%d", len(a), len(u), len(r))
			}
		}
	}
	alone, crowded := build(0), build(64<<10)

	if a, c := testing.AllocsPerRun(20, alone), testing.AllocsPerRun(20, crowded); a != c {
		t.Fatalf("sync allocates %.1f times beside 64 k other records, %.1f alone", c, a)
	}
	// The fastest of many short alternating samples on each side: a sync
	// takes well under a millisecond, so most samples escape preemption by
	// the other processes of a parallel test run.
	timed := func(f func()) time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	bestAlone, bestCrowded := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 50; i++ {
		bestAlone = min(bestAlone, timed(alone))
		bestCrowded = min(bestCrowded, timed(crowded))
	}
	t.Logf("one sync of 1,000 records: %v alone, %v beside 64 k other records", bestAlone, bestCrowded)
	if bestCrowded > 2*bestAlone {
		t.Fatalf("sync beside 64 k other records took %v, alone %v: want at most 2x", bestCrowded, bestAlone)
	}
}

// BenchmarkDirectory measures the directory reads and writes the churn
// workload issues, one operation per iteration: a replica lookup, an
// incremental re-announcement of an existing record, and one holder's
// converged anti-entropy sync (1,365 records, no deltas). -benchmem gives
// the exact allocations of each.
func BenchmarkDirectory(b *testing.B) {
	d, sets := churnDirectory()
	services := make([]string, churnRecords)
	for i := range services {
		services[i] = fmt.Sprintf("svc-%04d", i)
	}

	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if eps := d.EndpointsFor(services[i%churnRecords]); len(eps) != 1 {
				b.Fatalf("lookup %s = %+v", services[i%churnRecords], eps)
			}
			i++
		}
	})
	b.Run("reannounce", func(b *testing.B) {
		b.ReportAllocs()
		own := sets[1]
		i := 0
		for b.Loop() {
			if !d.PutEndpoint(own[i%len(own)]) {
				b.Fatal("re-announced record was missing")
			}
			i++
		}
	})
	b.Run("silent_sync", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if a, u, r := d.ReplaceEndpointsOf("n1", sets[1]); len(a)+len(u)+len(r) != 0 {
				b.Fatalf("converged sync emitted deltas: +%d ~%d -%d", len(a), len(u), len(r))
			}
		}
	})
}
