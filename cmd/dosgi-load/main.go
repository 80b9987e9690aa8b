// Command dosgi-load drives a dosgid or dosgi-sim remote-protocol
// listener at a FIXED OFFERED RATE and reports honest latency
// percentiles.
//
// Honest means two things most quick-and-dirty loops get wrong:
//
//   - Open loop, not closed loop. A closed loop ("issue, wait, issue")
//     lets a slow server throttle its own measurement: every stall
//     quietly lowers the offered rate, so the recorded tail only covers
//     the requests the server deigned to accept — the coordinated
//     omission trap. dosgi-load computes each operation's INTENDED
//     start time from the offered rate before the run begins and
//     measures latency from that intended start, so queueing delay the
//     server caused is charged to the server.
//   - Nanosecond-resolution percentiles from a log-bucketed histogram
//     (internal/obs, ≤6.25% relative error), never quantized to the
//     scheduler tick.
//
// Usage:
//
//	dosgi-load -sim -rate 20000 -duration 5s
//	dosgi-load -addr 127.0.0.1:7790 -service echo -method Add 2 3
//
// With -addr it targets a running daemon (dosgid's -remote listener or
// dosgi-sim's -remote listener). With -sim it spins up an in-process
// protocol simulator on a loopback port — the full TCP stack with zero
// external dependencies — and drives that. Positional arguments become
// the call arguments (integers where they parse, strings otherwise).
// Calls are pipelined over -conns pooled connections per endpoint with
// at most -window in flight. The exit status is 1 when any call failed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/protosim"
	"dosgi/internal/remote"
)

func main() {
	os.Exit(run())
}

// run drives the load and returns the process exit status, so the
// deferred cleanup (pool, scheduler, in-process simulator) runs first.
func run() int {
	addr := flag.String("addr", "", "remote-protocol address of a running dosgid/dosgi-sim")
	simMode := flag.Bool("sim", false, "spin up an in-process dosgi-sim and drive it over loopback")
	seed := flag.Int64("seed", 1, "population seed for -sim")
	rate := flag.Float64("rate", 5000, "offered rate in operations/second")
	duration := flag.Duration("duration", 5*time.Second, "offered-load duration (ops = rate × duration)")
	workers := flag.Int("workers", 4, "pacer goroutines (the offered schedule is split across them)")
	window := flag.Int("window", 64, "max in-flight requests per endpoint")
	conns := flag.Int("conns", 1, "pooled connections per endpoint")
	tokens := flag.Bool("tokens", true, "attach idempotency tokens so timeout retries stay effectively-once")
	service := flag.String("service", "echo", `service to invoke ("echo" on both dosgid and dosgi-sim)`)
	method := flag.String("method", "Add", "method to invoke")
	timeout := flag.Duration("timeout", 5*time.Second, "per-call timeout")
	flag.Parse()

	if *rate <= 0 || *duration <= 0 || *workers <= 0 {
		log.Print("dosgi-load: -rate, -duration and -workers must be positive")
		return 1
	}

	target := *addr
	if *simMode {
		if target != "" {
			log.Print("dosgi-load: -sim and -addr are mutually exclusive")
			return 1
		}
		sim, err := protosim.New(protosim.Config{
			Seed: *seed, Nodes: 16, ServicesPerNode: 2, Artifacts: -1,
		})
		if err != nil {
			log.Printf("dosgi-load: start simulator: %v", err)
			return 1
		}
		defer sim.Close()
		target = sim.RemoteAddr()
		log.Printf("dosgi-load: in-process dosgi-sim (seed %d) on %s", *seed, target)
	}
	if target == "" {
		log.Print("dosgi-load: need -addr or -sim")
		return 1
	}

	args := callArgs(flag.Args(), *method)

	sched := clock.NewReal()
	defer sched.Stop()
	transport := remote.NewTCPTransport(sched, remote.WithTCPCallTimeout(*timeout))
	pool := remote.NewPool(transport,
		remote.WithMaxConnsPerEndpoint(*conns),
		remote.WithMaxInFlight(*window))
	defer pool.Close()
	resolver := remote.NewStaticResolver()
	resolver.Set(*service, remote.Endpoint{Addr: target})
	var invOpts []remote.InvokerOption
	if *tokens {
		invOpts = append(invOpts, remote.WithIdempotencyTokens())
	}
	invoker := remote.NewInvoker(pool, resolver, invOpts...)

	// Warm the path (dial) before the clock starts, so the first bucket
	// measures steady state, not setup.
	if _, err := invoker.Call(*service, *method, args...); err != nil {
		log.Printf("dosgi-load: warm-up call failed: %v", err)
		return 1
	}

	total := int(*rate * duration.Seconds())
	if total < 1 {
		total = 1
	}
	lat := obs.NewHistogram()
	var errs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(total)

	// Each worker owns the ops i ≡ w (mod workers) of one global
	// schedule: op i's intended start is begin + i/rate, fixed before the
	// run. Workers sleep until the intended instant and then issue
	// WITHOUT waiting for earlier completions — if the server falls
	// behind, requests queue (in the pool and the kernel) and the queue
	// time lands in the histogram, because latency is measured from the
	// intended start, not the actual send.
	begin := time.Now()
	for w := 0; w < *workers; w++ {
		go func(w int) {
			for i := w; i < total; i += *workers {
				intended := begin.Add(time.Duration(float64(i) / *rate * float64(time.Second)))
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				invoker.Go(*service, *method, args, func(_ []any, err error) {
					if err != nil {
						errs.Add(1)
					} else {
						lat.Record(time.Since(intended))
					}
					wg.Done()
				})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	snap := lat.Snapshot()
	failed := errs.Load()
	var achieved float64
	if elapsed > 0 {
		achieved = float64(int64(total)-failed) / elapsed.Seconds()
	}
	fmt.Printf("dosgi-load: mode=pipelined offered=%.0f/s ops=%d errors=%d elapsed=%v\n",
		*rate, total, failed, elapsed.Round(time.Millisecond))
	fmt.Printf("dosgi-load: achieved=%.0f/s p50=%v p99=%v p999=%v max=%v (from intended start)\n",
		achieved, snap.P50, snap.P99, snap.P999, snap.Max)
	if failed > 0 {
		return 1
	}
	return 0
}

// callArgs turns positional arguments into call arguments: integers
// where they parse, strings otherwise. With none given, Add gets a
// default pair so the stock echo services work out of the box.
func callArgs(raw []string, method string) []any {
	if len(raw) == 0 {
		if method == "Add" {
			return []any{int64(2), int64(3)}
		}
		return nil
	}
	args := make([]any, len(raw))
	for i, s := range raw {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			args[i] = n
		} else {
			args[i] = s
		}
	}
	return args
}
