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
//	dosgi-load -sim -rate 20000 -duration 5s -mode pipelined -out .
//	dosgi-load -addr 127.0.0.1:7790 -service echo -method Add 2 3
//
// With -addr it targets a running daemon (dosgid's -remote listener or
// dosgi-sim's -remote listener). With -sim it spins up an in-process
// protocol simulator on a loopback port — the full TCP stack with zero
// external dependencies — and drives that. Positional arguments become
// the call arguments (integers where they parse, strings otherwise).
//
// With -out the run is appended to BENCH_remote.json in that directory
// through the same trajectory machinery cmd/benchjson uses (see
// internal/benchio), tagged "LoadFixedRate".
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dosgi/internal/benchio"
	"dosgi/internal/clock"
	"dosgi/internal/obs"
	"dosgi/internal/protosim"
	"dosgi/internal/remote"
)

// LoadRow is one fixed-rate run; this is what lands in
// BENCH_remote.json. Durations marshal as integer nanoseconds.
type LoadRow struct {
	Mode        string
	OfferedRate float64 // ops/second the pacer aimed for
	Ops         int
	Errors      int
	Elapsed     time.Duration // first intended start to last completion
	Throughput  float64       // completed ok ops per wall-clock second
	P50         time.Duration // measured from INTENDED start
	P99         time.Duration
	P999        time.Duration
	Max         time.Duration
}

func main() {
	addr := flag.String("addr", "", "remote-protocol address of a running dosgid/dosgi-sim")
	simMode := flag.Bool("sim", false, "spin up an in-process dosgi-sim and drive it over loopback")
	seed := flag.Int64("seed", 1, "population seed for -sim")
	rate := flag.Float64("rate", 5000, "offered rate in operations/second")
	duration := flag.Duration("duration", 5*time.Second, "offered-load duration (ops = rate × duration)")
	workers := flag.Int("workers", 4, "pacer goroutines (the offered schedule is split across them)")
	mode := flag.String("mode", "pipelined", "pipelined | conn-per-call")
	window := flag.Int("window", 64, "max in-flight requests per endpoint (pipelined)")
	conns := flag.Int("conns", 1, "pooled connections per endpoint (pipelined)")
	tokens := flag.Bool("tokens", true, "attach idempotency tokens so timeout retries stay effectively-once")
	service := flag.String("service", "echo", `service to invoke ("echo" on both dosgid and dosgi-sim)`)
	method := flag.String("method", "Add", "method to invoke")
	timeout := flag.Duration("timeout", 5*time.Second, "per-call timeout")
	out := flag.String("out", "", "directory whose BENCH_remote.json the run is appended to (empty = report only)")
	flag.Parse()

	if *rate <= 0 || *duration <= 0 || *workers <= 0 {
		log.Fatal("dosgi-load: -rate, -duration and -workers must be positive")
	}

	target := *addr
	if *simMode {
		if target != "" {
			log.Fatal("dosgi-load: -sim and -addr are mutually exclusive")
		}
		sim, err := protosim.New(protosim.Config{
			Seed: *seed, Nodes: 16, ServicesPerNode: 2, Artifacts: -1,
		})
		if err != nil {
			log.Fatalf("dosgi-load: start simulator: %v", err)
		}
		defer sim.Close()
		target = sim.RemoteAddr()
		log.Printf("dosgi-load: in-process dosgi-sim (seed %d) on %s", *seed, target)
	}
	if target == "" {
		log.Fatal("dosgi-load: need -addr or -sim")
	}

	args := callArgs(flag.Args(), *method)

	sched := clock.NewReal()
	defer sched.Stop()
	transport := remote.NewTCPTransport(sched, remote.WithTCPCallTimeout(*timeout))

	var poolOpts []remote.PoolOption
	switch *mode {
	case "pipelined":
		poolOpts = []remote.PoolOption{
			remote.WithMaxConnsPerEndpoint(*conns),
			remote.WithMaxInFlight(*window),
		}
	case "conn-per-call":
		poolOpts = []remote.PoolOption{remote.WithPerCallConns()}
	default:
		log.Fatalf("dosgi-load: unknown -mode %q", *mode)
	}
	pool := remote.NewPool(transport, poolOpts...)
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
		log.Fatalf("dosgi-load: warm-up call failed: %v", err)
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
	row := LoadRow{
		Mode:        *mode,
		OfferedRate: *rate,
		Ops:         total,
		Errors:      int(errs.Load()),
		Elapsed:     elapsed,
		P50:         snap.P50,
		P99:         snap.P99,
		P999:        snap.P999,
		Max:         snap.Max,
	}
	if elapsed > 0 {
		row.Throughput = float64(int64(total)-errs.Load()) / elapsed.Seconds()
	}
	fmt.Printf("dosgi-load: mode=%s offered=%.0f/s ops=%d errors=%d elapsed=%v\n",
		row.Mode, row.OfferedRate, row.Ops, row.Errors, row.Elapsed.Round(time.Millisecond))
	fmt.Printf("dosgi-load: achieved=%.0f/s p50=%v p99=%v p999=%v max=%v (from intended start)\n",
		row.Throughput, row.P50, row.P99, row.P999, row.Max)
	if row.Errors > 0 {
		defer os.Exit(1)
	}

	if *out != "" {
		path := filepath.Join(*out, "BENCH_remote.json")
		params := map[string]any{
			"rate": *rate, "durationNs": duration.Nanoseconds(), "workers": *workers,
			"mode": *mode, "window": *window, "conns": *conns,
			"tokens":  *tokens,
			"service": *service, "method": *method, "sim": *simMode,
		}
		n, err := benchio.Append(path, "LoadFixedRate", params, []LoadRow{row})
		if err != nil {
			log.Fatalf("dosgi-load: %v", err)
		}
		fmt.Printf("wrote %s (LoadFixedRate, %d run(s))\n", path, n)
	}
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
