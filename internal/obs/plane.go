package obs

import (
	"time"
)

// Plane bundles one node's observability instruments: the tracer/span
// store and the five hot-path latency histograms the ISSUE's metrics
// pillar names. The cluster wires one Plane per node and registers
// Provider under "obs:<node>"; dosgid does the same for its process.
type Plane struct {
	Tracer *Tracer

	// InvokerCall measures the full client call path: Invoker.Go entry to
	// final completion, failover retries included.
	InvokerCall *Histogram
	// PoolWait measures connection-pool acquisition: how long a call
	// waited for a pipelined slot before it reached a connection.
	PoolWait *Histogram
	// FrameRTT measures one frame round trip on a connection: request
	// write to response arrival, per attempt, both transports.
	FrameRTT *Histogram
	// EventAckLag measures the event broker's push-to-ack lag: a Notify
	// frame's write to the Renew acknowledging its sequence number.
	EventAckLag *Histogram
	// ChunkFetch measures one provisioning chunk fetch round trip.
	ChunkFetch *Histogram
}

// NewPlane builds a node's observability plane; now supplies timestamps
// for spans (histogram callers time themselves).
func NewPlane(node string, now func() time.Duration) *Plane {
	return &Plane{
		Tracer:      NewTracer(node, now, DefaultSpanCapacity),
		InvokerCall: NewHistogram(),
		PoolWait:    NewHistogram(),
		FrameRTT:    NewHistogram(),
		EventAckLag: NewHistogram(),
		ChunkFetch:  NewHistogram(),
	}
}

// Provider exposes every histogram (count/p50/p99/p999/max each) plus the
// span-store depth as one MetricsService attribute source.
func (p *Plane) Provider() func() map[string]any {
	return func() map[string]any {
		out := make(map[string]any, 26)
		p.InvokerCall.Attrs("invoker", out)
		p.PoolWait.Attrs("poolWait", out)
		p.FrameRTT.Attrs("frameRTT", out)
		p.EventAckLag.Attrs("eventAckLag", out)
		p.ChunkFetch.Attrs("chunkFetch", out)
		out["spans"] = int64(p.Tracer.Store().Len())
		return out
	}
}
