package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"dosgi/internal/cluster"
	"dosgi/internal/core"
	"dosgi/internal/migrate"
	"dosgi/internal/module"
)

const (
	failoverNodes        = 4
	failoverSatInstances = 16                       // instances on the victim, saturated
	failoverLightProbe   = 1 * time.Millisecond     // virtual probe period, light
	failoverSatProbe     = 8 * time.Millisecond     // virtual probe period, saturated
	failoverTimeout      = 3 * time.Second          // virtual: an instance not answering by then failed
	failoverHeartbeat    = 50 * time.Millisecond    // gcs default; the crash lands at a seeded phase of it
	failoverLightSegOps  = 24                       // rounds per light-phase segment, about 100 ms of wall time
	failoverSatSegOps    = 8 * failoverSatInstances // ops per saturated-phase segment, about 60 ms
)

// whoService is exported from inside every benchmark instance; it answers
// with the instance that owns it, so a reply proves which copy served it.
type whoService struct{ instance string }

func (s *whoService) Who() string { return s.instance }

// benchBundle exports svc.<instance> from whatever virtual framework it
// starts in, as internal/cluster's ticker test bundle does.
func benchBundle() *module.Definition {
	return &module.Definition{
		ManifestText: "Bundle-SymbolicName: bench.who\nBundle-Version: 1.0.0\nBundle-Activator: bench.who.Activator\n",
		Classes:      map[string]any{"bench.who.Who": "who"},
		NewActivator: func() module.Activator {
			var reg *module.ServiceRegistration
			return &module.ActivatorFuncs{
				OnStart: func(ctx *module.Context) error {
					inst := ctx.Property("vosgi.instance")
					var err error
					reg, err = ctx.RegisterSingle("bench.Who", &whoService{instance: inst}, module.Properties{
						module.PropServiceExported:     true,
						module.PropServiceExportedName: "svc." + inst,
					})
					return err
				},
				OnStop: func(*module.Context) error {
					if reg != nil {
						_ = reg.Unregister()
					}
					return nil
				},
			}
		},
	}
}

func benchTenant(id string) core.Descriptor {
	return core.Descriptor{
		ID:       core.InstanceID(id),
		Customer: "customer-" + id,
		Bundles:  []core.BundleSpec{{Location: "app:bench", Start: true}},
		Resources: core.ResourceSpec{
			CPUMillicores: 100,
			MemoryBytes:   64 << 20,
			Weight:        1,
			Priority:      1,
		},
	}
}

// failoverRound is what one crash-and-restore round measured.
type failoverRound struct {
	lat         []int64         // per restored instance: wall time from the crash to its first answer, ns
	outage      []time.Duration // per restored instance: virtual time without service
	failed      int
	buildWall   time.Duration
	detectVirt  time.Duration   // crash → first survivor's view change
	restore     []time.Duration // view change → instance redeployed, wall
	viewChanges int             // on the survivors, from the crash on
	msgs        int64           // gcs messages the survivors sent, from the crash on
}

// instanceFailover is the paper's headline path, one fresh cluster per
// round because a cluster never forgets a crashed node: the victim hosts k
// instances that each export a service, it crashes at a seeded phase of
// the heartbeat interval, and an observer probes every instance's service
// until the restored copy answers.
type instanceFailover struct {
	env    *env
	seed   int64
	rng    *rand.Rand
	rounds int
}

func setupInstanceFailover(e *env, seed int64) (system, error) {
	w := &instanceFailover{env: e, seed: seed, rng: rand.New(rand.NewSource(seed))}
	if r := w.round(nil, 1, failoverLightProbe); r.failed > 0 {
		return nil, fmt.Errorf("instance_failover: first failover did not complete")
	}
	return w, nil
}

func (w *instanceFailover) round(tr *tracer, k int, probeEvery time.Duration) failoverRound {
	w.rounds++
	op := int64(w.rounds)
	var r failoverRound
	fail := func() failoverRound { r.failed = k; return r }

	t0 := time.Now()
	c := cluster.New(w.seed<<20 + int64(w.rounds))
	c.Definitions().MustAdd("app:bench", benchBundle())
	nodes := make([]*cluster.Node, failoverNodes)
	for i := range nodes {
		n, err := c.AddNode(cluster.NodeConfig{ID: fmt.Sprintf("n%d", i)})
		if err != nil {
			return fail()
		}
		nodes[i] = n
	}
	c.Settle(time.Second) // stable membership
	r.buildWall = time.Since(t0)

	victim, observer, survivors := nodes[0], nodes[1], nodes[1:]
	ids, svcs := make([]string, k), make([]string, k)
	for i := range ids {
		ids[i] = fmt.Sprintf("inst-%02d", i)
		svcs[i] = "svc." + ids[i]
		if err := c.Deploy(victim.ID(), benchTenant(ids[i])); err != nil {
			return fail()
		}
	}
	c.Settle(500 * time.Millisecond) // checkpoints on the SAN, endpoints announced
	c.Settle(time.Duration(w.rng.Int63n(int64(failoverHeartbeat))))

	var crashAt, lostAt time.Duration
	var lostWall time.Time
	for _, n := range survivors {
		n.Migration().OnEvent(func(ev migrate.Event) {
			switch {
			case ev.Type == migrate.EventNodeLost && lostAt == 0:
				lostAt, lostWall = c.Now(), time.Now()
				r.detectVirt = lostAt - crashAt
			case ev.Type == migrate.EventRedeployed:
				r.restore = append(r.restore, time.Since(lostWall))
			}
		})
	}
	views0, msgs0 := survivorCounts(survivors)

	if k == 1 {
		// A light round's latency is the failover's own compute. Every
		// round builds a cluster and drops it, so the live heap is a few
		// MB and a collection cycle is as short as a round: whether a
		// failover overlapped one decided its latency (520 or 1000 us, in
		// spells of tens of seconds). Collect now and keep the collector
		// off until the instance answers; its cost stays in the saturated
		// phase's throughput and CPU per op.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	crashSpan := tr.start("cluster.crash", 0, op)
	wall0 := time.Now()
	crashAt = c.Now()
	if err := c.Crash(victim.ID()); err != nil {
		return fail()
	}
	tr.end(crashSpan)

	answered := make([]bool, k)
	open := k
	stepSpan := tr.start("sim.engine.step", 0, op)
	for open > 0 && c.Now()-crashAt < failoverTimeout {
		for i, id := range ids {
			if answered[i] {
				continue
			}
			observer.InvokeRemote(svcs[i], "Who", nil, func(res []any, err error) {
				if answered[i] || err != nil || len(res) != 1 || res[0] != id {
					return
				}
				answered[i] = true
				open--
				r.lat = append(r.lat, time.Since(wall0).Nanoseconds())
				r.outage = append(r.outage, c.Now()-crashAt)
			})
		}
		c.Settle(probeEvery)
	}
	tr.end(stepSpan)
	views1, msgs1 := survivorCounts(survivors)
	r.viewChanges, r.msgs = views1-views0, msgs1-msgs0

	// Oracle: every instance runs on exactly one survivor.
	for i, id := range ids {
		hosts := 0
		for _, n := range survivors {
			if inst, ok := n.Manager().Get(core.InstanceID(id)); ok && inst.State() == core.InstanceRunning {
				hosts++
			}
		}
		if !answered[i] || hosts != 1 {
			r.failed++
		}
	}
	return r
}

func survivorCounts(survivors []*cluster.Node) (views int, msgs int64) {
	for _, n := range survivors {
		st := n.Member().Stats()
		views += st.ViewChanges
		msgs += st.MsgsSent
	}
	return views, msgs
}

// runSegment runs rounds until ops instances were restored (or failed to be).
func (w *instanceFailover) runSegment(tr *tracer, ops, k int, probeEvery time.Duration, each func(failoverRound)) segment {
	var s segment
	t0, c0 := time.Now(), selfCPU()
	for done := 0; done < ops; done += k {
		r := w.round(tr, k, probeEvery)
		s.lat = append(s.lat, r.lat...)
		for i := len(r.lat); i < k; i++ {
			s.lat = append(s.lat, failoverTimeout.Nanoseconds())
		}
		s.ops += k - r.failed
		s.failed += r.failed
		if each != nil {
			each(r)
		}
	}
	s.wall, s.cpu = time.Since(t0), selfCPU()-c0
	return s
}

func (w *instanceFailover) phase(saturated bool, d time.Duration, tr *tracer) (segs []segment, attempted, failed int) {
	ops, k, probe := max(1, failoverLightSegOps/w.env.plan.opScale), 1, failoverLightProbe
	if saturated {
		ops, k, probe = max(failoverSatInstances, failoverSatSegOps/w.env.plan.opScale), failoverSatInstances, failoverSatProbe
	}
	for t0 := time.Now(); len(segs) == 0 || time.Since(t0)+segs[len(segs)-1].wall/2 < d; { // whole segments, d to the nearest one
		s := w.runSegment(tr, ops, k, probe, nil)
		attempted, failed = attempted+s.ops+s.failed, failed+s.failed
		segs = append(segs, s)
	}
	return segs, attempted, failed
}

// warm runs saturated rounds for d of wall time.
func (w *instanceFailover) warm(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		w.round(nil, failoverSatInstances, failoverSatProbe)
	}
}

// layer reads the modelled times and the counts from a fresh twin of the
// system, over one saturated and one light segment: a fixed number of
// rounds from a state only the seed determines, so the virtual times and
// the counts repeat bit for bit.
func (w *instanceFailover) layer(*tracer) metrics {
	twin := &instanceFailover{env: w.env, seed: w.seed, rng: rand.New(rand.NewSource(w.seed))}
	var build, detect, restore, outage []float64
	var views, msgs, restored float64
	each := func(r failoverRound) {
		build = append(build, float64(r.buildWall.Nanoseconds())/1e6)
		detect = append(detect, float64(r.detectVirt.Nanoseconds())/1e6)
		for _, d := range r.restore {
			restore = append(restore, float64(d.Nanoseconds())/1e3)
		}
		views += float64(r.viewChanges)
		msgs += float64(r.msgs)
		restored += float64(len(r.lat))
	}
	scale := w.env.plan.opScale
	twin.runSegment(nil, max(failoverSatInstances, failoverSatSegOps/scale), failoverSatInstances, failoverSatProbe, each)
	twin.runSegment(nil, max(1, failoverLightSegOps/scale), 1, failoverLightProbe, func(r failoverRound) {
		each(r)
		for _, d := range r.outage { // the light rounds probe every virtual millisecond
			outage = append(outage, float64(d.Nanoseconds())/1e6)
		}
	})
	return metrics{
		"cluster.build_ms":           wall(medianOf(build)),
		"gcs.detect_virtual_ms":      virtual(medianOf(detect)),
		"cluster.outage_virtual_ms":  virtual(medianOf(outage)),
		"migrate.restore_us":         wall(medianOf(restore)),
		"gcs.view_changes_per_round": count(views / float64(len(build))),
		"gcs.msgs_per_failover":      count(msgs / restored),
	}
}

func (w *instanceFailover) check() error { return nil } // every round ran its own oracle

func (w *instanceFailover) close() {}

func (w *instanceFailover) describe() string {
	return fmt.Sprintf("closed loop on the simulation engine, a fresh %d-node cluster per round: light 1 instance on the victim probed every %v, saturated %d probed every %v",
		failoverNodes, failoverLightProbe, failoverSatInstances, failoverSatProbe)
}
