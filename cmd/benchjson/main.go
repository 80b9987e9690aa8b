// Command benchjson runs the scale experiments — E10 remote invocation,
// E11 chunked artifact transfer, E12 event backpressure, E13 directory
// convergence — and writes one JSON file per experiment into the output
// directory:
//
//	BENCH_remote.json     E10: pipelined pool vs conn-per-call
//	BENCH_provision.json  E11: transfer throughput across chunk sizes
//	BENCH_events.json     E12: fast/slow subscribers, flow control off/on
//	BENCH_directory.json  E13: convergence + per-node broadcast load,
//	                      1k/10k/100k endpoints, paced and in bursts
//
// Each file holds the experiment's full trajectory (see internal/benchio):
// a run APPENDS a timestamped point to the existing file instead of
// overwriting it, so the committed file itself is the performance story.
// `make bench-json` runs it at the repository root; commit the refreshed
// files after performance work. E11 runs on the deterministic simulator
// (identical numbers on every machine); E10 and E12 measure wall-clock
// latency — E10 the cost of the middleware stack itself, E12 real TCP —
// so their numbers vary with the host. cmd/dosgi-load appends its
// fixed-rate load runs to BENCH_remote.json through the same machinery.
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"dosgi/internal/benchio"
	"dosgi/internal/experiments"
)

func main() {
	out := flag.String("out", ".", "output directory for the BENCH_*.json files")
	calls := flag.Int("calls", 5000, "E10: invocations per mode")
	window := flag.Int("window", 32, "E10: outstanding invocations")
	bytes := flag.Int64("bytes", 4<<20, "E11: artifact size")
	fetchWindow := flag.Int("fetch-window", 8, "E11: chunk requests in flight")
	events := flag.Int("events", 2000, "E12: events published per mode")
	creditWindow := flag.Int64("credit-window", 64, "E12: broker credit window")
	slowDelay := flag.Duration("slow-delay", time.Millisecond, "E12: slow subscriber per-event delay")
	dirNodes := flag.Int("dir-nodes", 8, "E13: cluster size")
	dirMax := flag.Int("dir-max-endpoints", 100000, "E13: largest endpoint population (1k and 10k columns always run)")
	flag.Parse()

	chunkSizes := []int64{4 << 10, 64 << 10, 1 << 20}

	e10, err := experiments.E10RemoteInvocation(*calls, *window)
	if err != nil {
		log.Fatal(err)
	}
	writeReport(*out, "BENCH_remote.json", "E10RemoteInvocation", map[string]any{
		"calls": *calls, "window": *window,
	}, e10)

	e11, err := experiments.E11ArtifactTransfer(*bytes, chunkSizes, *fetchWindow)
	if err != nil {
		log.Fatal(err)
	}
	writeReport(*out, "BENCH_provision.json", "E11ArtifactTransfer", map[string]any{
		"bytes": *bytes, "chunkSizes": chunkSizes, "window": *fetchWindow,
	}, e11)

	e12, err := experiments.E12EventBackpressure(*events, *creditWindow, *slowDelay)
	if err != nil {
		log.Fatal(err)
	}
	writeReport(*out, "BENCH_events.json", "E12EventBackpressure", map[string]any{
		"events": *events, "creditWindow": *creditWindow, "slowDelayNs": slowDelay.Nanoseconds(),
	}, e12)

	endpointCounts := []int{1000, 10000}
	if *dirMax > 10000 {
		endpointCounts = append(endpointCounts, *dirMax)
	}
	e13, err := experiments.E13Directory(endpointCounts, *dirNodes)
	if err != nil {
		log.Fatal(err)
	}
	writeReport(*out, "BENCH_directory.json", "E13Directory", map[string]any{
		"endpoints": endpointCounts, "nodes": *dirNodes,
	}, e13)
	e13b, err := experiments.E13DirectoryBursts(endpointCounts, *dirNodes)
	if err != nil {
		log.Fatal(err)
	}
	writeReport(*out, "BENCH_directory.json", "E13DirectoryBursts", map[string]any{
		"endpoints": endpointCounts, "nodes": *dirNodes,
	}, e13b)
}

func writeReport(dir, file, experiment string, params map[string]any, rows any) {
	path := filepath.Join(dir, file)
	n, err := benchio.Append(path, experiment, params, rows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%s, %d run(s))\n", path, experiment, n)
}
