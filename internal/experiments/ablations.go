package experiments

import (
	"fmt"
	"time"

	"dosgi/internal/bench"
	"dosgi/internal/cluster"
	"dosgi/internal/gcs"
	"dosgi/internal/ipvs"
	"dosgi/internal/netsim"
	"dosgi/internal/sim"
)

// ---------------------------------------------------------------------------
// A2 — ipvs scheduler choice under heterogeneous backends.

// A2Row reports one scheduler.
type A2Row struct {
	Scheduler  string
	OK         int64
	P50        time.Duration
	P99        time.Duration
	FastServed int64
	SlowServed int64
}

// A2IpvsSchedulers compares rr, wrr and least-connections when one backend
// is half as fast as the other.
func A2IpvsSchedulers(ratePerSec float64, cpuPerReq, duration time.Duration) ([]A2Row, error) {
	kinds := []struct {
		kind ipvs.SchedulerKind
		name string
		// weights favour the fast node for wrr.
		fastWeight, slowWeight int
	}{
		{ipvs.RoundRobin, "round-robin", 1, 1},
		{ipvs.WeightedRoundRobin, "weighted-rr (2:1)", 2, 1},
		{ipvs.LeastConnections, "least-connections", 1, 1},
	}
	var rows []A2Row
	for _, k := range kinds {
		c := cluster.New(21)
		registerTenantBundle(c.Definitions())
		if _, err := c.AddNode(cluster.NodeConfig{ID: "fast", IP: "10.0.0.10", CPUCapacity: 2000}); err != nil {
			return nil, err
		}
		if _, err := c.AddNode(cluster.NodeConfig{ID: "slow", IP: "10.0.0.11", CPUCapacity: 1000}); err != nil {
			return nil, err
		}
		c.Settle(2 * time.Second)
		if err := c.Deploy("fast", tenantDescriptor("svc-fast", 0, 1, "10.1.0.1", 8080)); err != nil {
			return nil, err
		}
		if err := c.Deploy("slow", tenantDescriptor("svc-slow", 0, 1, "10.1.0.2", 8080)); err != nil {
			return nil, err
		}
		c.Settle(time.Second)

		c.Network().AttachNode("director")
		if err := c.Network().AssignIP("10.0.100.1", "director"); err != nil {
			return nil, err
		}
		vip := netsim.Addr{IP: "10.0.100.1", Port: 80}
		vs := ipvs.New(c.Engine(), c.Network(), "director", vip, k.kind,
			ipvs.WithConnTTL(cpuPerReq*2))
		vs.AddServer(netsim.Addr{IP: "10.1.0.1", Port: 8080}, k.fastWeight)
		vs.AddServer(netsim.Addr{IP: "10.1.0.2", Port: 8080}, k.slowWeight)
		if err := vs.Start(); err != nil {
			return nil, err
		}

		gen, err := bench.NewGenerator(c.Engine(), c.Network(), bench.GeneratorConfig{
			Target: vip, Rate: ratePerSec, CPUCost: cpuPerReq,
		})
		if err != nil {
			return nil, err
		}
		gen.Start()
		c.Settle(duration)
		gen.Stop()
		c.Settle(2 * time.Second)
		st := gen.Stats()
		ipvsStats := vs.Stats()
		rows = append(rows, A2Row{
			Scheduler:  k.name,
			OK:         st.OK,
			P50:        st.Latency.Percentile(0.50),
			P99:        st.Latency.Percentile(0.99),
			FastServed: ipvsStats.PerServer["10.1.0.1:8080"],
			SlowServed: ipvsStats.PerServer["10.1.0.2:8080"],
		})
	}
	return rows, nil
}

// FormatA2 renders A2 rows.
func FormatA2(rows []A2Row) string {
	t := bench.NewTable("scheduler", "ok", "p50", "p99", "fast-served", "slow-served")
	for _, r := range rows {
		t.AddRow(r.Scheduler, r.OK, r.P50, r.P99, r.FastServed, r.SlowServed)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A3 — failure-detector timeout trade-off.

// A3Row reports one timeout setting, with or without client evidence.
type A3Row struct {
	FailTimeout time.Duration
	// Evidence: every 100 ms each member reports evidence
	// (gcs.Member.Suspect) against every other member of its view, which
	// is what clients whose calls time out on a lossy link would report.
	Evidence         bool
	DetectionLatency time.Duration // mean over the seeds
	FalseSuspicions  int           // summed over the seeds
}

// a3Seeds runs of 60 s lossy steady state make each A3 row.
const a3Seeds = 5

// A3FailureDetector measures crash-detection latency and false suspicions
// on a lossy network for a range of timeouts: one row per timeout without
// evidence, then one per timeout with it, in the order given.
func A3FailureDetector(timeouts []time.Duration, lossRate float64) ([]A3Row, error) {
	var rows []A3Row
	for _, evidence := range []bool{false, true} {
		for _, timeout := range timeouts {
			row := A3Row{FailTimeout: timeout, Evidence: evidence}
			for seed := int64(31); seed < 31+a3Seeds; seed++ {
				detection, falseSusp, err := a3Run(timeout, lossRate, evidence, seed)
				if err != nil {
					return nil, err
				}
				row.DetectionLatency += detection / a3Seeds
				row.FalseSuspicions += falseSusp
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// a3Run is one seed of one A3 row: 60 s of lossy steady state, then
// node03 crashes and the run measures how long until node00's view drops
// it.
func a3Run(timeout time.Duration, lossRate float64, evidence bool, seed int64) (time.Duration, int, error) {
	eng := sim.New(seed)
	net := netsim.NewNetwork(eng,
		netsim.WithLatency(time.Millisecond),
		netsim.WithLoss(lossRate, eng.Rand()))
	dir := gcs.NewDirectory()
	const size = 4
	members := make([]*gcs.Member, size)
	for i := range members {
		id := fmt.Sprintf("node%02d", i)
		nic := net.AttachNode(id)
		ip := netsim.IP("ip-" + id)
		if err := net.AssignIP(ip, id); err != nil {
			return 0, 0, err
		}
		m, err := gcs.NewMember(eng, gcs.Config{
			NodeID: id, Addr: netsim.Addr{IP: ip, Port: 7000},
			NIC: nic, Directory: dir,
			HeartbeatInterval: 25 * time.Millisecond,
			FailTimeout:       timeout,
		})
		if err != nil {
			return 0, 0, err
		}
		members[i] = m
	}
	// A false suspicion = a live member observed leaving a view while
	// it never crashed, once the group first formed: the views that
	// assemble it lack members nobody suspected.
	falseSusp := 0
	crashed, formed := false, false
	members[0].OnViewChange(func(v gcs.View) {
		if !formed {
			formed = len(v.Members) == size
			return
		}
		for i := 0; i < size-1; i++ { // node03 is the one we crash
			if !v.Contains(fmt.Sprintf("node%02d", i)) {
				falseSusp++
			}
		}
		if !crashed && !v.Contains("node03") {
			falseSusp++
		}
	})
	for _, m := range members {
		if err := m.Start(); err != nil {
			return 0, 0, err
		}
	}
	if evidence {
		eng.Every(100*time.Millisecond, func() {
			for _, m := range members {
				for _, peer := range m.View().Members {
					m.Suspect(peer)
				}
			}
		})
	}
	eng.RunFor(60 * time.Second) // lossy steady state

	crashed = true
	crashAt := eng.Now()
	var detectedAt time.Duration
	members[0].OnViewChange(func(v gcs.View) {
		if detectedAt == 0 && !v.Contains("node03") {
			detectedAt = eng.Now()
		}
	})
	members[size-1].Crash()
	if nic, ok := net.NIC("node03"); ok {
		nic.SetUp(false)
	}
	eng.RunFor(5 * time.Second)
	return max(detectedAt-crashAt, 0), falseSusp, nil // 0: not detected
}

// FormatA3 renders A3 rows.
func FormatA3(rows []A3Row) string {
	t := bench.NewTable("fail-timeout", "evidence", "detection latency", "false suspicions (5 x 60s lossy)")
	for _, r := range rows {
		t.AddRow(r.FailTimeout, r.Evidence, r.DetectionLatency, r.FalseSuspicions)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// A4 — broadcast ordering for directory updates.

// A4Result compares FIFO against total order for concurrent directory
// writers.
type A4Result struct {
	Trials         int
	DivergentFIFO  int
	DivergentTotal int
}

// A4BroadcastOrdering has two members concurrently updating the same
// directory key; with FIFO ordering receivers may apply the writes in
// different orders and diverge, with total order they cannot — the property
// decentralized redeployment depends on.
func A4BroadcastOrdering(trials int) (A4Result, error) {
	res := A4Result{Trials: trials}
	run := func(ordering gcs.Ordering, seed int64) (bool, error) {
		eng := sim.New(seed)
		// Per-pair latencies that reverse the arrival order of the two
		// writers at different receivers: node00 sees node01's write first
		// and node02's last, node02 sees its own first and node01's last.
		// FIFO (per-sender order only) lets receivers apply them in those
		// different orders; total order cannot.
		net := netsim.NewNetwork(eng, netsim.WithLatencyFunc(func(from, to string) time.Duration {
			switch {
			case from == to:
				return time.Millisecond
			case from == "node01" && to == "node02":
				return 6 * time.Millisecond
			case from == "node02" && to == "node00":
				return 6 * time.Millisecond
			case from == "node02" && to == "node01":
				return 2 * time.Millisecond
			default:
				return time.Millisecond
			}
		}))
		dir := gcs.NewDirectory()
		const size = 3
		members := make([]*gcs.Member, size)
		finals := make([]string, size)
		for i := 0; i < size; i++ {
			id := fmt.Sprintf("node%02d", i)
			nic := net.AttachNode(id)
			ip := netsim.IP("ip-" + id)
			if err := net.AssignIP(ip, id); err != nil {
				return false, err
			}
			m, err := gcs.NewMember(eng, gcs.Config{
				NodeID: id, Addr: netsim.Addr{IP: ip, Port: 7000},
				NIC: nic, Directory: dir,
			})
			if err != nil {
				return false, err
			}
			i := i
			m.OnDeliver(func(msg gcs.Message) {
				if s, ok := msg.Body.(string); ok {
					finals[i] = s // last write wins
				}
			})
			members[i] = m
		}
		for _, m := range members {
			if err := m.Start(); err != nil {
				return false, err
			}
		}
		eng.RunFor(2 * time.Second)

		// Two concurrent writers assign the same instance.
		if err := members[1].Broadcast("owner=node01", ordering); err != nil {
			return false, err
		}
		if err := members[2].Broadcast("owner=node02", ordering); err != nil {
			return false, err
		}
		eng.RunFor(time.Second)
		for i := 1; i < size; i++ {
			if finals[i] != finals[0] {
				return true, nil
			}
		}
		return false, nil
	}

	for i := 0; i < trials; i++ {
		div, err := run(gcs.FIFO, int64(1000+i))
		if err != nil {
			return res, err
		}
		if div {
			res.DivergentFIFO++
		}
		div, err = run(gcs.Total, int64(1000+i))
		if err != nil {
			return res, err
		}
		if div {
			res.DivergentTotal++
		}
	}
	return res, nil
}

// FormatA4 renders the A4 result.
func FormatA4(r A4Result) string {
	t := bench.NewTable("ordering", "divergent replicas", "trials")
	t.AddRow("fifo", r.DivergentFIFO, r.Trials)
	t.AddRow("total", r.DivergentTotal, r.Trials)
	return t.String()
}
