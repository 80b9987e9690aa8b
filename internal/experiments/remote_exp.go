package experiments

import (
	"fmt"
	"time"

	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/obs"
	"dosgi/internal/remote"
	"dosgi/internal/sim"
)

// ---------------------------------------------------------------------------
// E10 — remote service invocation: pipelined pooled connections vs one
// connection per call.
//
// A provider framework exports a service over the netsim transport; a
// client drives a closed loop of `window` outstanding invocations. The
// pipelined mode multiplexes them over a single pooled connection
// (correlation ids); the per-call mode dials a fresh connection — one
// hello/ack handshake round trip — for every invocation, the pre-R-OSGi
// baseline.
//
// Measurement is WALL-CLOCK, not simulated time: the deterministic
// simulator delivers every message after an identical virtual latency, so
// simulated per-call times quantize to one value (the bug this replaces —
// every historical BENCH_remote.json point reports P50 == P99 ==
// exactly 1ms). What E10 actually characterizes is the cost of the
// middleware stack itself — codec, connection bookkeeping, dispatch —
// and that cost is real time, recorded per call with time.Since at
// nanosecond resolution into a log-bucketed obs.Histogram.

// E10Row reports one invocation mode. Messages is the one column the
// simulator repeats exactly — netsim messages delivered for the whole run:
// a pooled connection pays one hello + ack and then a request and a
// response per call, and a connection per call pays the handshake every
// time. The timing columns
// are wall clock and vary run to run.
type E10Row struct {
	Mode       string
	Calls      int
	Messages   int64
	Elapsed    time.Duration // wall-clock, first issue to last completion
	Throughput float64       // calls per wall-clock second
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
}

// e10Service is the exported benchmark service.
type e10Service struct{}

func (e10Service) Work(x int64) int64 { return x * 2 }

// E10RemoteInvocation runs `calls` invocations with `window` outstanding
// in every mode: pipelined, then conn-per-call (the order is part of the
// row contract — consumers index it).
func E10RemoteInvocation(calls, window int) ([]E10Row, error) {
	if calls <= 0 || window <= 0 {
		return nil, fmt.Errorf("experiments: e10 needs positive calls and window")
	}
	modes := []struct {
		name string
		opts []remote.PoolOption
	}{
		{"pipelined", []remote.PoolOption{
			remote.WithMaxConnsPerEndpoint(1),
			remote.WithMaxInFlight(window),
		}},
		{"conn-per-call", []remote.PoolOption{remote.WithPerCallConns()}},
	}
	var rows []E10Row
	for _, mode := range modes {
		row, err := e10Run(mode.name, calls, window, mode.opts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func e10Run(name string, calls, window int, poolOpts []remote.PoolOption) (E10Row, error) {
	eng := sim.New(10)
	net := netsim.NewNetwork(eng)
	serverNIC := net.AttachNode("server")
	if err := net.AssignIP("10.0.0.1", "server"); err != nil {
		return E10Row{}, err
	}
	clientNIC := net.AttachNode("client")
	if err := net.AssignIP("10.0.0.2", "client"); err != nil {
		return E10Row{}, err
	}

	provider := module.New(module.WithName("e10-provider"))
	if err := provider.Start(); err != nil {
		return E10Row{}, err
	}
	if _, err := provider.SystemContext().RegisterSingle("bench.Service", e10Service{}, module.Properties{
		module.PropServiceExported:     true,
		module.PropServiceExportedName: "bench",
	}); err != nil {
		return E10Row{}, err
	}
	exporter, err := remote.NewExporter(provider.SystemContext())
	if err != nil {
		return E10Row{}, err
	}
	server := remote.NewNetsimServer(serverNIC,
		netsim.Addr{IP: "10.0.0.1", Port: 7100}, remote.NewDispatcher(exporter))
	if err := server.Start(); err != nil {
		return E10Row{}, err
	}

	transport := remote.NewNetsimTransport(eng, clientNIC, "10.0.0.2")
	pool := remote.NewPool(transport, poolOpts...)
	resolver := remote.NewStaticResolver()
	resolver.Set("bench", remote.Endpoint{Node: "server", Addr: "10.0.0.1:7100"})
	invoker := remote.NewInvoker(pool, resolver)

	lat := obs.NewHistogram()
	issued, completed := 0, 0
	var firstErr error
	var lastDone time.Time
	var launch func()
	launch = func() {
		if issued >= calls {
			return
		}
		issued++
		start := time.Now()
		invoker.Go("bench", "Work", []any{int64(issued)}, func(res []any, err error) {
			completed++
			lastDone = time.Now()
			if err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				lat.Record(time.Since(start))
			}
			launch() // closed loop: a completion funds the next call
		})
	}
	begin := time.Now()
	for i := 0; i < window; i++ {
		launch()
	}
	// Drive the simulation until the workload drains; the engine executes
	// events as fast as the host allows, so wall time measures the stack,
	// not the virtual network. Elapsed is measured at the last completion,
	// not the RunFor deadline, so the quantum does not quantize throughput.
	for deadline := 0; completed < calls && deadline < 10_000; deadline++ {
		eng.RunFor(100 * time.Millisecond)
	}
	if firstErr != nil {
		return E10Row{}, firstErr
	}
	if completed < calls {
		return E10Row{}, fmt.Errorf("experiments: e10 %s stalled at %d/%d", name, completed, calls)
	}
	elapsed := lastDone.Sub(begin)
	snap := lat.Snapshot()
	row := E10Row{
		Mode:     name,
		Calls:    calls,
		Messages: net.Stats().Delivered,
		Elapsed:  elapsed,
		P50:      snap.P50,
		P99:      snap.P99,
		P999:     snap.P999,
	}
	if elapsed > 0 {
		row.Throughput = float64(calls) / elapsed.Seconds()
	}
	return row, nil
}
