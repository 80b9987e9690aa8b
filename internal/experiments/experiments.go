// Package experiments implements the paper's reproduction experiments
// (E1–E9), the event-push and directory-fill measurements (E12, E13) and
// the design ablations (A2–A4). Each experiment is a function over a
// fresh cluster (simulated, except E12's real TCP) returning a result
// struct; the root bench_test.go and cmd/cluster-sim share them.
//
// The paper publishes no quantitative results (it is a workshop paper with
// architecture figures only), so each experiment reproduces the *claim*
// attached to a figure or section.
package experiments

import (
	"fmt"
	"time"

	"dosgi/internal/bench"
	"dosgi/internal/cluster"
	"dosgi/internal/core"
	"dosgi/internal/module"
	"dosgi/internal/netsim"
	"dosgi/internal/services"
	"dosgi/internal/sim"
	"dosgi/internal/vjvm"
	"dosgi/internal/vosgi"
)

// Cost model constants shared by the architecture experiments (E1/E2).
// They encode 2008-era JVM/OSGi figures: a JVM process costs tens of MB
// and hundreds of ms to boot; a framework and its bundles are far lighter.
const (
	JVMBootCPU       = 400 * time.Millisecond
	FrameworkInitCPU = 50 * time.Millisecond
	InstanceInitCPU  = 25 * time.Millisecond
	JVMBaseMem       = 64 << 20
	FrameworkMem     = 8 << 20
	InstanceMem      = 4 << 20
	BaseBundleMem    = 2 << 20
	NumBaseBundles   = 3
)

// tenantBundleLocation is the demo customer bundle used across experiments.
const tenantBundleLocation = "app:tenant"

func registerTenantBundle(defs *module.DefinitionRegistry) {
	if _, ok := defs.Get(tenantBundleLocation); ok {
		return
	}
	defs.MustAdd(tenantBundleLocation, &module.Definition{
		ManifestText: "Bundle-SymbolicName: com.tenant.app\nBundle-Version: 1.0.0\n",
		Classes:      map[string]any{"com.tenant.app.Main": "tenant-main"},
	})
}

func tenantDescriptor(id string, cpu int64, prio int, endpointIP string, port uint16) core.Descriptor {
	d := core.Descriptor{
		ID:             core.InstanceID(id),
		Customer:       "customer-" + id,
		Bundles:        []core.BundleSpec{{Location: tenantBundleLocation, Start: true}},
		SharedServices: []string{services.LogServiceClass},
		Resources: core.ResourceSpec{
			CPUMillicores: cpu,
			MemoryBytes:   256 << 20,
			Weight:        1,
			Priority:      prio,
		},
	}
	if endpointIP != "" {
		d.Endpoints = []core.Endpoint{{IP: endpointIP, Port: port, Service: "http"}}
	}
	return d
}

// ---------------------------------------------------------------------------
// E1 — Figures 1–3: architecture comparison.

// E1Row reports one architecture at one scale.
type E1Row struct {
	Arch        string
	Customers   int
	MemoryMB    float64
	StartupTime time.Duration
	MgmtOp      time.Duration
}

// E1ArchitectureComparison models the three §2 deployment architectures
// with the vjvm cost model: one JVM per customer (Figure 1), all customers
// in one JVM (Figure 2), and virtual instances inside an OSGi host
// (Figure 3). Startup is the serialized boot of everything; MgmtOp is one
// lifecycle command to one customer (remote RTT for Figure 1, in-process
// for the others).
func E1ArchitectureComparison(customers int) []E1Row {
	rows := make([]E1Row, 0, 3)

	// Figure 1: one JVM per customer, managed over the network.
	{
		eng := sim.New(1)
		var mem int64
		var bootDone time.Duration
		for i := 0; i < customers; i++ {
			vm := vjvm.New(eng, vjvm.WithCapacity(4000), vjvm.WithBaseOverhead(JVMBaseMem))
			d, _ := vm.CreateDomain("sys")
			_ = d.Alloc(FrameworkMem + InstanceMem + NumBaseBundles*BaseBundleMem)
			if _, err := vm.Submit("sys", JVMBootCPU+FrameworkInitCPU+InstanceInitCPU, func(bool) {
				bootDone = eng.Now()
			}); err == nil {
				eng.Run()
			}
			mem += vm.MemoryUsed()
		}
		// Management round trip over the network (RMI/JMX/TCP per §2).
		net := netsim.NewNetwork(eng, netsim.WithLatency(500*time.Microsecond))
		mgr := net.AttachNode("mgr")
		tgt := net.AttachNode("jvm0")
		_ = net.AssignIP("ip-mgr", "mgr")
		_ = net.AssignIP("ip-jvm0", "jvm0")
		var rtt time.Duration
		_ = tgt.Listen(netsim.Addr{IP: "ip-jvm0", Port: 1}, func(m netsim.Message) {
			_ = tgt.Send(netsim.Addr{IP: "ip-jvm0", Port: 1}, m.From, "ack", 32)
		})
		_ = mgr.Listen(netsim.Addr{IP: "ip-mgr", Port: 1}, func(netsim.Message) { rtt = eng.Now() - bootDone })
		_ = mgr.Send(netsim.Addr{IP: "ip-mgr", Port: 1}, netsim.Addr{IP: "ip-jvm0", Port: 1}, "stop-bundle", 32)
		eng.Run()
		rows = append(rows, E1Row{
			Arch: "multi-jvm (Fig 1)", Customers: customers,
			MemoryMB:    float64(mem) / (1 << 20),
			StartupTime: time.Duration(customers) * (JVMBootCPU + FrameworkInitCPU + InstanceInitCPU),
			MgmtOp:      rtt,
		})
	}

	// Figure 2: one JVM, embedded instances, direct management.
	{
		eng := sim.New(1)
		vm := vjvm.New(eng, vjvm.WithCapacity(4000), vjvm.WithBaseOverhead(JVMBaseMem))
		d, _ := vm.CreateDomain("sys")
		var boot time.Duration
		work := JVMBootCPU + time.Duration(customers)*(FrameworkInitCPU+InstanceInitCPU)
		// Every customer still duplicates the base bundles in its own
		// embedded framework.
		_ = d.Alloc(int64(customers) * (FrameworkMem + InstanceMem + NumBaseBundles*BaseBundleMem))
		if _, err := vm.Submit("sys", work, func(bool) { boot = eng.Now() }); err == nil {
			eng.Run()
		}
		rows = append(rows, E1Row{
			Arch: "same-jvm (Fig 2)", Customers: customers,
			MemoryMB:    float64(vm.MemoryUsed()) / (1 << 20),
			StartupTime: boot,
			MgmtOp:      time.Microsecond, // in-process call
		})
	}

	// Figure 3: virtual instances inside one OSGi host; base bundles
	// loaded once, instances are lightweight child frameworks.
	{
		eng := sim.New(1)
		vm := vjvm.New(eng, vjvm.WithCapacity(4000), vjvm.WithBaseOverhead(JVMBaseMem))
		d, _ := vm.CreateDomain("sys")
		var boot time.Duration
		work := JVMBootCPU + FrameworkInitCPU + time.Duration(customers)*InstanceInitCPU
		_ = d.Alloc(FrameworkMem + NumBaseBundles*BaseBundleMem + int64(customers)*InstanceMem)
		if _, err := vm.Submit("sys", work, func(bool) { boot = eng.Now() }); err == nil {
			eng.Run()
		}
		rows = append(rows, E1Row{
			Arch: "vosgi-in-osgi (Fig 3)", Customers: customers,
			MemoryMB:    float64(vm.MemoryUsed()) / (1 << 20),
			StartupTime: boot,
			MgmtOp:      time.Microsecond,
		})
	}
	return rows
}

// FormatE1 renders E1 rows.
func FormatE1(rows []E1Row) string {
	t := bench.NewTable("architecture", "customers", "memory(MB)", "startup", "mgmt-op")
	for _, r := range rows {
		t.AddRow(r.Arch, r.Customers, r.MemoryMB, r.StartupTime, r.MgmtOp)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E2 — Figure 4: shared base services.

// E2Result compares duplicated base bundles against pulled-down shared
// ones, using real frameworks.
type E2Result struct {
	Instances         int
	BaseBundles       int
	BundlesDuplicated int
	BundlesShared     int
	MemDuplicatedMB   float64
	MemSharedMB       float64
	SharedIdentity    bool // delegated class is the same object for all
}

// E2SharedServices builds both configurations with live frameworks and
// counts installed bundles and modeled memory.
func E2SharedServices(instances, baseBundles int) (E2Result, error) {
	defs := module.NewDefinitionRegistry()
	for i := 0; i < baseBundles; i++ {
		loc := fmt.Sprintf("base:%d", i)
		defs.MustAdd(loc, &module.Definition{
			ManifestText: fmt.Sprintf("Bundle-SymbolicName: com.base%d\nBundle-Version: 1.0.0\nExport-Package: com.base%d\n", i, i),
			Classes:      map[string]any{fmt.Sprintf("com.base%d.Service", i): fmt.Sprintf("svc-%d", i)},
		})
	}
	registerTenantBundle(defs)
	res := E2Result{Instances: instances, BaseBundles: baseBundles}

	// Duplicated: every instance installs its own copies.
	{
		host := module.New(module.WithName("host-dup"), module.WithDefinitions(defs))
		if err := host.Start(); err != nil {
			return res, err
		}
		total := 0
		for i := 0; i < instances; i++ {
			vf, err := vosgi.New(fmt.Sprintf("dup-%d", i), host, vosgi.SharePolicy{})
			if err != nil {
				return res, err
			}
			if err := vf.Start(); err != nil {
				return res, err
			}
			for b := 0; b < baseBundles; b++ {
				bb, err := vf.Framework().InstallBundle(fmt.Sprintf("base:%d", b))
				if err != nil {
					return res, err
				}
				if err := bb.Start(); err != nil {
					return res, err
				}
			}
			if _, err := vf.Framework().InstallBundle(tenantBundleLocation); err != nil {
				return res, err
			}
			total += len(vf.Framework().Bundles()) - 1 // exclude system bundle
		}
		res.BundlesDuplicated = total
		res.MemDuplicatedMB = float64(int64(instances)*(InstanceMem+int64(baseBundles)*BaseBundleMem)) / (1 << 20)
	}

	// Shared: base bundles live once in the host; instances delegate.
	{
		host := module.New(module.WithName("host-shared"), module.WithDefinitions(defs))
		if err := host.Start(); err != nil {
			return res, err
		}
		packages := make([]string, 0, baseBundles)
		for b := 0; b < baseBundles; b++ {
			bb, err := host.InstallBundle(fmt.Sprintf("base:%d", b))
			if err != nil {
				return res, err
			}
			if err := bb.Start(); err != nil {
				return res, err
			}
			packages = append(packages, fmt.Sprintf("com.base%d", b))
		}
		total := baseBundles
		var definers []*module.Bundle
		for i := 0; i < instances; i++ {
			vf, err := vosgi.New(fmt.Sprintf("sh-%d", i), host, vosgi.SharePolicy{Packages: packages})
			if err != nil {
				return res, err
			}
			if err := vf.Start(); err != nil {
				return res, err
			}
			tb, err := vf.Framework().InstallBundle(tenantBundleLocation)
			if err != nil {
				return res, err
			}
			if err := tb.Start(); err != nil {
				return res, err
			}
			cls, err := tb.LoadClass("com.base0.Service")
			if err != nil {
				return res, err
			}
			definers = append(definers, cls.Definer)
			total += len(vf.Framework().Bundles()) - 1
		}
		res.BundlesShared = total
		res.MemSharedMB = float64(int64(baseBundles)*BaseBundleMem+int64(instances)*InstanceMem) / (1 << 20)
		res.SharedIdentity = true
		for _, d := range definers {
			if d != definers[0] {
				res.SharedIdentity = false
			}
		}
	}
	return res, nil
}

// FormatE2 renders the E2 result.
func FormatE2(r E2Result) string {
	t := bench.NewTable("config", "bundles", "memory(MB)", "one-copy-identity")
	t.AddRow("duplicated per instance", r.BundlesDuplicated, r.MemDuplicatedMB, "n/a")
	t.AddRow("shared via delegation (Fig 4)", r.BundlesShared, r.MemSharedMB, r.SharedIdentity)
	return t.String()
}

// ---------------------------------------------------------------------------
// E3 — Figure 5 / §3.2: migration and failover.

// E3Result reports the migration timings.
type E3Result struct {
	ColdStart        time.Duration // deploy from scratch
	RestartInPlace   time.Duration // stop + start on the same node
	PlannedDowntime  time.Duration // stop-and-copy migration
	CrashFailover    time.Duration // crash detection + redeployment
	EndpointFollowed bool          // the endpoint IP moved with the instance
}

// E3Migration measures cold start, in-place restart, planned migration
// downtime and crash failover on a 3-node cluster.
func E3Migration() (E3Result, error) {
	var res E3Result
	c := cluster.New(42)
	registerTenantBundle(c.Definitions())
	for i := 0; i < 3; i++ {
		if _, err := c.AddNode(cluster.NodeConfig{ID: fmt.Sprintf("node%02d", i)}); err != nil {
			return res, err
		}
	}
	c.Settle(2 * time.Second)

	// Cold start.
	t0 := c.Now()
	if err := c.Deploy("node00", tenantDescriptor("mig", 500, 1, "10.1.0.1", 80)); err != nil {
		return res, err
	}
	res.ColdStart = c.Now() - t0
	c.Settle(time.Second)

	// Restart in place ("cost comparable to a normal startup, probably
	// less" — §3.2).
	n0, _ := c.Node("node00")
	t0 = c.Now()
	if err := n0.Manager().Stop("mig"); err != nil {
		return res, err
	}
	if err := n0.Manager().Start("mig"); err != nil {
		return res, err
	}
	res.RestartInPlace = c.Now() - t0
	c.Settle(time.Second)

	// Planned migration: downtime measured by the SLA tracker.
	downBefore := c.Tracker().Downtime("mig", c.Now())
	if err := n0.Migration().Migrate("mig", "node01"); err != nil {
		return res, err
	}
	c.Settle(2 * time.Second)
	res.PlannedDowntime = c.Tracker().Downtime("mig", c.Now()) - downBefore

	// Crash failover.
	downBefore = c.Tracker().Downtime("mig", c.Now())
	if err := c.Crash("node01"); err != nil {
		return res, err
	}
	c.Settle(3 * time.Second)
	res.CrashFailover = c.Tracker().Downtime("mig", c.Now()) - downBefore

	node, _, ok := c.FindInstance("mig")
	if ok {
		owner, _ := c.Network().OwnerOf("10.1.0.1")
		res.EndpointFollowed = owner == node.ID()
	}
	return res, nil
}

// FormatE3 renders the E3 result.
func FormatE3(r E3Result) string {
	t := bench.NewTable("scenario", "time")
	t.AddRow("cold start (deploy)", r.ColdStart)
	t.AddRow("restart in place", r.RestartInPlace)
	t.AddRow("planned migration downtime", r.PlannedDowntime)
	t.AddRow("crash failover downtime", r.CrashFailover)
	t.AddRow("endpoint followed instance", fmt.Sprintf("%v", r.EndpointFollowed))
	return t.String()
}
