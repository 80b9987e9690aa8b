package migrate

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dosgi/internal/core"
	"dosgi/internal/gcs"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/san"
	"dosgi/internal/sim"
)

// eraseRun is one seed of the transient-erase reproducer: a two-node
// pair on sim.Engine whose links take 100 µs plus a seeded random jitter
// below jitter, so one sender's order requests can overtake each other on
// their way to the coordinator. node00 churns announce/withdraw rounds
// 200 µs apart beside a 10 ms anti-entropy period, and announces sticky
// endpoints 2.5 ms apart, from its second churn round on, that it never
// withdraws. node01's directory is
// sampled every virtual millisecond. It returns the first sticky record
// that disappeared from node01 after it had appeared there, or "".
func eraseRun(t *testing.T, seed int64, jitter time.Duration) string {
	t.Helper()
	eng := sim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	net := netsim.NewNetwork(eng, netsim.WithLatencyFunc(func(from, to string) time.Duration {
		return 100*time.Microsecond + time.Duration(rng.Int63n(int64(jitter)))
	}))
	store := san.NewStore(eng)
	gdir := gcs.NewDirectory()
	defs := module.NewDefinitionRegistry()
	var mods [2]*Module
	for i := range mods {
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
		member, err := gcs.NewMember(eng, gcs.Config{
			NodeID:    id,
			Addr:      netsim.Addr{IP: ip, Port: 7000},
			NIC:       nic,
			Directory: gdir,
		})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModule(Config{
			NodeID: id, Sched: eng, Member: member, Store: store,
			Manager:     core.NewManager(host, core.Hooks{}),
			CPUCapacity: 1000, MemCapacity: 1 << 30,
			ResyncEvery: 10 * time.Millisecond,
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
		mods[i] = mod
	}
	eng.RunFor(2 * time.Second)
	a, b := mods[0], mods[1]

	const (
		names  = 16
		rounds = 250
		sticky = 20
	)
	for i := 0; i < rounds; i++ {
		i := i
		eng.After(time.Duration(i)*200*time.Microsecond, func() {
			svc := fmt.Sprintf("svc.%02d", i%names)
			a.AnnounceEndpointFor(svc, fmt.Sprintf("ip-node00:%d", 7100+i%3), "")
			if i%3 == 2 {
				a.WithdrawEndpoint(svc)
			}
		})
	}
	for i := 0; i < sticky; i++ {
		svc := fmt.Sprintf("sticky.%02d", i)
		eng.After(200*time.Microsecond+time.Duration(i)*2500*time.Microsecond, func() {
			a.AnnounceEndpointFor(svc, "ip-node00:7200", "")
		})
	}
	seen := make(map[string]bool, sticky)
	erased := ""
	probe := eng.Every(time.Millisecond, func() {
		for i := 0; i < sticky && erased == ""; i++ {
			svc := fmt.Sprintf("sticky.%02d", i)
			there := len(b.Directory().EndpointsFor(svc)) == 1
			if seen[svc] && !there {
				erased = fmt.Sprintf("%s at %v", svc, eng.Now())
			}
			if there {
				seen[svc] = true
			}
		}
	})
	eng.RunFor(100 * time.Millisecond)
	probe.Cancel()
	if erased == "" && len(seen) != sticky {
		t.Fatalf("seed %d: only %d of %d sticky records ever reached node01", seed, len(seen), sticky)
	}
	return erased
}

// TestNoTransientEraseUnderReordering: a full-set snapshot sequenced
// after its own sender's later put erases the put's record on every
// replica until the next anti-entropy round. End-state checks never see
// it; sampling the replica every virtual millisecond does. Per-sender
// FIFO in the GCS total order keeps every seed clean.
func TestNoTransientEraseUnderReordering(t *testing.T) {
	const seeds = 30
	failed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		if erased := eraseRun(t, seed, 5*time.Millisecond); erased != "" {
			failed++
			t.Logf("seed %d: %s disappeared from node01 after it had appeared", seed, erased)
		}
	}
	if failed > 0 {
		t.Fatalf("a never-withdrawn record was transiently erased in %d/%d seeds", failed, seeds)
	}
}
