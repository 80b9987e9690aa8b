package main

import (
	"testing"

	"dosgi/internal/conformance"
	"dosgi/internal/provision"
	"dosgi/internal/remote"
)

// TestConformanceDosgid runs the backend-agnostic PROTOCOL.md suite
// against a real in-process daemon — the same suite internal/protosim
// runs, so the simulator and the daemon are pinned to one spec.
func TestConformanceDosgid(t *testing.T) {
	d := startDaemon(t)

	// Seed one signed sample artifact (small chunks, so the §6.1 chunk
	// walk exercises more than one round trip).
	arts, payloads, err := provision.SampleArtifacts(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.repo.Add(arts[0], payloads[0]); err != nil {
		t.Fatal(err)
	}

	conformance.Run(t, conformance.Target{
		Name:     "dosgid",
		Addr:     d.remoteAddr,
		Sched:    d.sched,
		Echo:     "echo",
		Artifact: &arts[0],
		InjectHealth: func(component, node, status, cause string) {
			ev := remote.ServiceEvent{Service: component, Node: node, Addr: status, Instance: cause}
			if status == "" {
				ev.Type = remote.ServiceUnregistering
			}
			d.health.Apply(ev)
		},
		HealthNode: d.remoteAddr,
	})
}
