package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dosgi/internal/cluster"
	"dosgi/internal/migrate"
)

const (
	churnNodes       = 3
	churnRecords     = 4096
	churnLookups     = 8               // directory reads issued beside every write
	churnBatch       = 16              // writes in flight per engine run, saturated
	churnSatSegOps   = 8192            // writes per saturated segment, about 100 ms of wall time
	churnLightSegOps = 4096            // writes per light segment, about 70 ms
	churnOpTimeout   = 1 * time.Second // virtual: a write that has not converged by then failed
	// churnSubmitSamples bounds the submit-cost samples: the benchmark's own
	// heap must not grow with the run.
	churnSubmitSamples = 1 << 16
)

// churnOp is one in-flight write, waiting for every replica to deliver it.
type churnOp struct {
	remaining int
	doneWall  time.Time
	doneVirt  time.Duration // engine time
}

// directoryChurn is the record-engine workload: three cluster.Nodes on the
// deterministic engine with the default link latency and anti-entropy
// period, churnRecords seeded endpoint records, and a closed loop of
// re-announcements with directory lookups beside them.
type directoryChurn struct {
	env      *env
	seed     int64
	c        *cluster.Cluster
	nodes    []*cluster.Node
	services []string            // services[i] is owned by nodes[i%churnNodes]
	model    map[string]string   // service → address the driver announced last
	pending  map[string]*churnOp // by announced address
	rng      *rand.Rand
	nextAddr int
	submitNs []int64 // wall cost of the first churnSubmitSamples AnnounceEndpointFor calls
	virtNs   []int64 // virtual convergence time of every write, kept only on the twin that layer builds
	keepVirt bool
}

func setupDirectoryChurn(e *env, seed int64) (system, error) { return newDirectoryChurn(e, seed) }

func newDirectoryChurn(e *env, seed int64) (*directoryChurn, error) {
	w := &directoryChurn{
		env:     e,
		seed:    seed,
		c:       cluster.New(seed),
		model:   make(map[string]string, churnRecords),
		pending: make(map[string]*churnOp),
		rng:     rand.New(rand.NewSource(seed)),
	}
	for i := 0; i < churnNodes; i++ {
		n, err := w.c.AddNode(cluster.NodeConfig{ID: fmt.Sprintf("n%d", i)})
		if err != nil {
			return nil, err
		}
		n.Migration().OnEndpointChange(func(ch migrate.EndpointChange) { w.delivered(ch.Info.Addr) })
		w.nodes = append(w.nodes, n)
	}
	w.c.Settle(time.Second) // stable membership

	// Seed the population in paced rounds, far below the ordered
	// broadcast's retransmission-log cap per heartbeat.
	w.services = make([]string, churnRecords)
	for i := range w.services {
		w.services[i] = fmt.Sprintf("svc-%04d", i)
	}
	for i := 0; i < churnRecords; {
		for j := 0; j < 2*churnBatch && i < churnRecords; j, i = j+1, i+1 {
			w.submit(nil, i)
		}
		if !w.converge() {
			return nil, fmt.Errorf("directory_churn: seeding did not converge")
		}
	}
	if !w.runBatch(nil, 1, nil) {
		return nil, fmt.Errorf("directory_churn: first write did not converge")
	}
	return w, nil
}

// delivered is every replica's OnEndpointChange hook.
func (w *directoryChurn) delivered(addr string) {
	op := w.pending[addr]
	if op == nil {
		return
	}
	if op.remaining--; op.remaining == 0 {
		delete(w.pending, addr)
		op.doneWall, op.doneVirt = time.Now(), w.c.Now()
	}
}

// submit announces a fresh address for service i from its owner and reads
// churnLookups other records on the other replicas, as invokers resolving
// endpoints do while the directory changes under them.
func (w *directoryChurn) submit(tr *tracer, i int) *churnOp {
	svc, owner := w.services[i], i%churnNodes
	w.nextAddr++
	addr := fmt.Sprintf("10.%d.%d.%d:7100", 1+w.nextAddr>>16, w.nextAddr>>8&0xff, w.nextAddr&0xff)
	op := &churnOp{remaining: churnNodes}
	w.pending[addr] = op
	w.model[svc] = addr
	id := tr.start("migrate.announce", 0, int64(w.nextAddr))
	t0 := time.Now()
	w.nodes[owner].Migration().AnnounceEndpointFor(svc, addr, "")
	if len(w.submitNs) < churnSubmitSamples {
		w.submitNs = append(w.submitNs, time.Since(t0).Nanoseconds())
	}
	tr.end(id)
	return op
}

func (w *directoryChurn) lookups() bool {
	ok := true
	for j := 0; j < churnLookups; j++ {
		i := w.rng.Intn(churnRecords)
		reader := w.nodes[(i+1+j%(churnNodes-1))%churnNodes] // never the owner
		eps := reader.Migration().Directory().EndpointsFor(w.services[i])
		ok = ok && len(eps) == 1 && eps[0].Service == w.services[i]
	}
	return ok
}

// converge steps the engine until every submitted write was delivered on
// every replica.
func (w *directoryChurn) converge() bool {
	eng := w.c.Engine()
	for v0 := eng.Now(); len(w.pending) > 0; {
		if eng.Now()-v0 > churnOpTimeout || !eng.Step() {
			clear(w.pending)
			return false
		}
	}
	return true
}

// runBatch is one closed-loop turn: n writes (with their lookups) and the
// engine run that converges them. It appends each op's latency to lat:
// the wall time from the turn's first submit to the op's delivery on the
// last replica, which on the engine is the compute cost of the real code.
// The modelled network time of the op is a layer metric (see layer).
func (w *directoryChurn) runBatch(tr *tracer, n int, lat *[]int64) bool {
	t0, v0 := time.Now(), w.c.Now()
	batch := make([]*churnOp, n)
	ok := true
	for k := range batch {
		batch[k] = w.submit(tr, w.rng.Intn(churnRecords))
		ok = w.lookups() && ok
	}
	id := tr.start("sim.engine.step", 0, int64(w.nextAddr))
	ok = w.converge() && ok
	tr.end(id)
	if !ok {
		return false
	}
	for _, op := range batch {
		if lat != nil {
			*lat = append(*lat, op.doneWall.Sub(t0).Nanoseconds())
		}
		if w.keepVirt {
			w.virtNs = append(w.virtNs, (op.doneVirt - v0).Nanoseconds())
		}
	}
	return true
}

// runSegment runs ops writes in batches of batch. An anti-entropy round
// (every 2 s of virtual time) falls into one saturated segment in four and
// into every light one.
func (w *directoryChurn) runSegment(tr *tracer, ops, batch int) segment {
	var s segment
	t0, c0 := time.Now(), selfCPU()
	for ops /= w.env.plan.opScale; s.ops+s.failed < ops; {
		if w.runBatch(tr, batch, &s.lat) {
			s.ops += batch
			continue
		}
		s.failed += batch
		for k := 0; k < batch; k++ {
			s.lat = append(s.lat, churnOpTimeout.Nanoseconds())
		}
	}
	s.wall, s.cpu = time.Since(t0), selfCPU()-c0
	return s
}

func (w *directoryChurn) phase(saturated bool, d time.Duration, tr *tracer) (segs []segment, attempted, failed int) {
	ops, batch := churnLightSegOps, 1
	if saturated {
		ops, batch = churnSatSegOps, churnBatch
	}
	for t0 := time.Now(); len(segs) == 0 || time.Since(t0)+segs[len(segs)-1].wall/2 < d; { // whole segments, d to the nearest one
		s := w.runSegment(tr, ops, batch)
		attempted, failed = attempted+s.ops+s.failed, failed+s.failed
		segs = append(segs, s)
	}
	return segs, attempted, failed
}

// counters sums the counts the layer metrics are deltas of.
type churnCounters struct {
	msgs, bytes, deltas, syncs, silent int64
}

func (w *directoryChurn) counters() churnCounters {
	c := churnCounters{bytes: w.c.Network().Stats().Bytes}
	for _, n := range w.nodes {
		sent, _ := n.DirectoryMsgCounts()
		st := n.Migration().EndpointStats()
		c.msgs += sent
		c.deltas += st.Added + st.Updated + st.Removed
		c.syncs += st.Syncs
		c.silent += st.SilentSyncs
	}
	return c
}

// warm runs saturated turns for d of wall time.
func (w *directoryChurn) warm(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		w.runBatch(nil, churnBatch, nil)
	}
}

// layer reads the counts and the modelled convergence time from a fresh
// twin of the system, over one saturated and one light segment: a fixed
// span of virtual time from a state only the seed determines, so the
// values repeat bit for bit.
func (w *directoryChurn) layer(*tracer) metrics {
	slices.Sort(w.submitNs)
	lm := metrics{"migrate.announce_submit_us": wall(p50us(w.submitNs))}
	twin, err := newDirectoryChurn(w.env, w.seed)
	if err != nil {
		fmt.Printf("# directory_churn: layer counts not read: %v\n", err)
		return lm
	}
	twin.keepVirt = true
	before := twin.counters()
	sat := twin.runSegment(nil, 4*churnSatSegOps, churnBatch) // one anti-entropy period
	light := twin.runSegment(nil, churnLightSegOps, 1)
	after := twin.counters()
	writes := float64(sat.ops + light.ops)
	lm["gcs.msgs_per_write"] = count(float64(after.msgs-before.msgs) / writes)
	lm["netsim.bytes_per_write"] = count(float64(after.bytes-before.bytes) / writes)
	lm["migrate.hook_deltas_per_write"] = count(float64(after.deltas-before.deltas) / writes)
	// Anti-entropy re-broadcasts every holder's set each period; a sync
	// that changes nothing on arrival did no useful work.
	lm["migrate.silent_sync_share"] = count(0)
	if syncs := after.syncs - before.syncs; syncs > 0 {
		lm["migrate.silent_sync_share"] = count(float64(after.silent-before.silent) / float64(syncs))
	}
	// The mean, not the median: a write from the sequencing node is one
	// hop shorter, and the mean shows the share of those.
	var sum int64
	for _, v := range twin.virtNs {
		sum += v
	}
	lm["migrate.converge_virtual_ms"] = virtual(float64(sum) / float64(len(twin.virtNs)) / 1e6)
	return lm
}

// check is the end-of-run oracle: every replica's endpoint set equals the
// driver's model.
func (w *directoryChurn) check() error {
	w.c.Settle(10 * time.Millisecond)
	for _, n := range w.nodes {
		held := 0
		for _, ep := range n.Migration().Directory().Endpoints() {
			want, ours := w.model[ep.Service] // the nodes' own base exports are not ours
			if !ours {
				continue
			}
			held++
			if want != ep.Addr {
				return fmt.Errorf("%s has %s at %s, model says %s", n.ID(), ep.Service, ep.Addr, want)
			}
		}
		if held != len(w.model) {
			return fmt.Errorf("%s holds %d of the driver's records, model has %d", n.ID(), held, len(w.model))
		}
	}
	return nil
}

func (w *directoryChurn) close() {} // the engine owns no goroutines

func (w *directoryChurn) describe() string {
	return fmt.Sprintf("closed loop on the simulation engine: %d nodes, %d records, %d lookups per write; light 1 write per engine run, saturated %d",
		churnNodes, churnRecords, churnLookups, churnBatch)
}
