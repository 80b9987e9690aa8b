package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/remote"
	"dosgi/internal/services"
)

// callSmall is the per-call fixed-cost workload: echo.Add on a real
// dosgid child over loopback TCP through the default pool and invoker.
// Operands are drawn from the seed in [1,50], so every frame has the same
// size and the reply is checked against the sum.
type callSmall struct {
	env      *env
	daemon   *child
	sched    *clock.Real
	pool     *remote.Pool
	inv      *remote.Invoker
	resolver *remote.StaticResolver
	addr     string
	operands [][2]int64
	readyMs  float64
	lm       metrics
}

const (
	callSmallConns    = 2 // remote.DefaultMaxConnsPerEndpoint
	callSmallSegment  = 100 * time.Millisecond
	callSmallInFlight = 16                   // per connection, saturated
	callTimeout       = 2 * time.Second      // remote.DefaultCallTimeout
	childReadyTimeout = 20 * time.Second     // spawn → readiness line
	daemonReadyMarker = "remote services on" // dosgid's start-up log line
)

var daemonAddrRE = regexp.MustCompile(`remote services on (\S+)`)

func setupCallSmall(e *env, seed int64) (system, error) {
	if e.dosgid == "" {
		return nil, fmt.Errorf("call_small needs -dosgid <binary>")
	}
	w := &callSmall{env: e, lm: metrics{}}
	t0 := time.Now()
	d, err := spawn(e.place, e.dosgid, "-listen", "127.0.0.1:0", "-remote", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.daemon = d
	line, err := d.awaitLine(daemonReadyMarker, childReadyTimeout)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("dosgid: %w", err)
	}
	w.readyMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	w.addr = daemonAddrRE.FindStringSubmatch(line)[1]

	w.sched = clock.NewReal()
	w.pool = remote.NewPool(e.transport(remote.NewTCPTransport(w.sched)))
	w.resolver = remote.NewStaticResolver()
	w.resolver.Set("echo", remote.Endpoint{Addr: w.addr})
	w.resolver.Set(services.MetricsRemoteName, remote.Endpoint{Addr: w.addr})
	w.inv = remote.NewInvoker(w.pool, w.resolver)

	rng := rand.New(rand.NewSource(seed))
	w.operands = make([][2]int64, 4096)
	for i := range w.operands {
		w.operands[i] = [2]int64{1 + rng.Int63n(50), 1 + rng.Int63n(50)}
	}
	if !w.op(nil).once() {
		w.close()
		return nil, fmt.Errorf("call_small: first call failed")
	}
	return w, nil
}

// op is one checked call. Under a tracer the call is bracketed by a root
// span and issued inside its section (see tracer).
func (w *callSmall) op(tr *tracer) asyncOp {
	return func(caller, seq int, done func(bool)) {
		ab := w.operands[(caller*7919+seq)%len(w.operands)]
		root := tr.start("remote.invoker.go", 0, int64(caller)<<32|int64(seq))
		tr.section(root, func() {
			w.inv.Go("echo", "Add", []any{ab[0], ab[1]}, func(res []any, err error) {
				tr.end(root)
				done(err == nil && len(res) == 1 && res[0] == ab[0]+ab[1])
			})
		})
	}
}

func (w *callSmall) cpu() time.Duration { return selfCPU() + w.daemon.cpu() }

func (w *callSmall) phase(saturated bool, d time.Duration, tr *tracer) ([]segment, int, int) {
	depth := 1
	if saturated {
		depth = callSmallInFlight
	}
	seg := callSmallSegment / time.Duration(w.env.plan.opScale)
	return closedLoop(callSmallConns, depth, max(1, int(d/seg)), seg, callTimeout, w.cpu, w.op(tr))
}

func (w *callSmall) warm(d time.Duration) {
	closedLoop(callSmallConns, callSmallInFlight, 1, d, callTimeout, w.cpu, w.op(nil))
}

// layer adds what only the live system can tell: how long the daemon took
// to come up, its footprint, and — from spans — where a light-phase call
// spends its time. The server-side queue/handler split comes from the
// daemon's own server spans: a second invoker with the existing
// observability option sends trace contexts, and the daemon's exported
// dosgi.metrics service returns the matching server spans.
func (w *callSmall) layer(tr *tracer) metrics {
	w.lm["dosgid.ready_ms"] = wall(w.readyMs)
	w.lm["dosgid.rss_mb"] = wall(w.daemon.rssMB())
	if tr != nil {
		rtt, self := p50us(tr.durations("remote.conn.call")), p50us(tr.selfTimes("remote.invoker.go"))
		w.lm["remote.tcp.rtt_us"], w.lm["remote.invoker.self_us"] = wall(rtt), wall(self)
		fmt.Printf("# call_small traced light p50 %.1f us = remote.tcp.rtt_us %.1f + remote.invoker.self_us %.1f + residual %.1f (the blocked caller's wake-up)\n",
			tr.lightP50, rtt, self, tr.lightP50-rtt-self)
		q, h := w.serverSplit(400)
		w.lm["dosgid.server_queue_us"] = wall(q)
		w.lm["dosgid.handler_us"] = wall(h)
	}
	return w.lm
}

// serverSplit issues n traced calls one at a time and returns the median
// receive→dispatch wait and handler time of their server spans (µs).
func (w *callSmall) serverSplit(n int) (queueUs, handlerUs float64) {
	client := obs.NewTracer("bench", w.sched.Now, n*4)
	inv := remote.NewInvoker(w.pool, w.resolver, remote.WithInvokerObservability(client, nil))
	for i := 0; i < n; i++ {
		if _, err := inv.Call("echo", "Add", int64(2), int64(3)); err != nil {
			return 0, 0
		}
	}
	seen := map[uint64]bool{}
	var queue, handler []int64
	for _, sp := range client.Store().All() {
		if sp.Parent != 0 || seen[sp.TraceID] {
			continue
		}
		seen[sp.TraceID] = true
		res, err := w.inv.Call(services.MetricsRemoteName, "Trace", int64(sp.TraceID))
		if err != nil || len(res) != 1 {
			continue
		}
		tuples, _ := res[0].([]any)
		for _, tup := range tuples {
			fields, _ := tup.([]any)
			if srv, ok := obs.SpanFromTuple(fields); ok && srv.Kind == obs.SpanServer {
				queue = append(queue, srv.Queue.Nanoseconds())
				handler = append(handler, (srv.Duration() - srv.Queue).Nanoseconds())
			}
		}
	}
	slices.Sort(queue)
	slices.Sort(handler)
	return p50us(queue), p50us(handler)
}

func (w *callSmall) check() error { return nil } // every reply was checked as it arrived

func (w *callSmall) close() {
	w.pool.Close()
	w.sched.Stop()
	w.daemon.stop()
}

func (w *callSmall) describe() string {
	return fmt.Sprintf("closed loop over loopback TCP to dosgid at %s: light %d synchronous callers, saturated %d×%d in flight",
		w.addr, callSmallConns, callSmallConns, callSmallInFlight)
}
