// Command dosgi-sim runs the protocol-faithful cluster simulator: one
// process that serves the full documented wire protocol (remote calls,
// event streams with replay windows, chunked provisioning, metrics,
// health) plus the dosgictl admin line protocol, over a deterministic
// seeded fake cluster of hundreds of nodes. See docs/SIMULATOR.md for a
// quickstart and docs/PROTOCOL.md annex A for the FAULT directives.
//
// Usage:
//
//	dosgi-sim -listen 127.0.0.1:7600 -remote 127.0.0.1:7690 -nodes 200
//	dosgictl -addr 127.0.0.1:7600 EXPORTS
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"dosgi/internal/protosim"
)

func main() {
	var cfg protosim.Config
	adminAddr := flag.String("listen", "127.0.0.1:7600", "admin listen address (what dosgictl dials)")
	remoteAddr := flag.String("remote", "127.0.0.1:7690", "remote protocol listen address")
	flag.Int64Var(&cfg.Seed, "seed", 1, "population seed (same seed, same cluster)")
	flag.IntVar(&cfg.Nodes, "nodes", 200, "fake cluster size")
	flag.IntVar(&cfg.ServicesPerNode, "services-per-node", 4, "synthetic endpoints per node")
	flag.IntVar(&cfg.Replication, "replication", 3, "replicas per synthetic service")
	flag.IntVar(&cfg.Artifacts, "artifacts", 12, "synthetic artifact count (negative disables)")
	flag.Int64Var(&cfg.ArtifactChunk, "chunk", 4096, "artifact chunk size in bytes")
	flag.IntVar(&cfg.ArtifactHolders, "holders", 3, "fake nodes holding each artifact")
	flag.IntVar(&cfg.NodeListeners, "node-listeners", 0, "fake nodes given a real dialable listener")
	flag.Float64Var(&cfg.StormRate, "storm", 0, "event storm rate in events/second (0 = off)")
	flag.IntVar(&cfg.ReplayWindow, "replay-window", 0, "broker replay window (0 = protocol default)")
	flag.Parse()
	cfg.AdminAddr = *adminAddr
	cfg.RemoteAddr = *remoteAddr

	sim, err := protosim.New(cfg)
	if err != nil {
		log.Fatalf("dosgi-sim: %v", err)
	}
	defer sim.Close()
	log.Printf("dosgi-sim: admin on %s, remote protocol on %s", sim.AdminAddr(), sim.RemoteAddr())
	log.Printf("dosgi-sim: seed=%d nodes=%d services=%d artifacts=%d listeners=%d storm=%.1f/s",
		cfg.Seed, cfg.Nodes, len(sim.ServiceNames()), len(sim.Artifacts()),
		cfg.NodeListeners, cfg.StormRate)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	log.Printf("dosgi-sim: shutting down")
}
