package main

import (
	"errors"
	"strings"

	adminproto "dosgi/internal/admin"
	"dosgi/internal/core"
	"dosgi/internal/provision"
	"dosgi/internal/services"
)

// verbs is the daemon's own half of the admin verb table: everything
// that needs a real framework. The shared half is adminproto.Backend.Verbs.
func (d *daemon) verbs() []adminproto.Verb {
	lifecycle := func(name string, op func(core.InstanceID) error) adminproto.Verb {
		return adminproto.Verb{Name: name, Usage: name + " <id>", Min: 1, Max: 1,
			Run: func(args []string, _ *adminproto.Reply) (string, error) {
				if err := op(core.InstanceID(args[0])); err != nil {
					return "", err
				}
				return adminproto.OKf("%s %s", strings.ToLower(name), args[0])
			}}
	}
	return []adminproto.Verb{
		{Name: "STATUS", Run: d.status},
		{Name: "LIST", Run: d.list},
		{Name: "CREATE", Usage: "CREATE <id> [sharedService ...]", Min: 1, Max: -1, Run: d.create},
		lifecycle("START", d.mgr.Start),
		lifecycle("STOP", d.mgr.Stop),
		lifecycle("DESTROY", d.mgr.Destroy),
		{Name: "BUNDLES", Usage: "BUNDLES <id>", Min: 1, Max: 1, Run: d.bundles},
		{Name: "DEPLOY", Usage: "DEPLOY <location>", Min: 1, Max: 1, Run: d.deploy},
		{Name: "REPO", Usage: "REPO [LIST|SEED]", Max: 1, Run: d.repoVerb},
		{Name: "LOG", Usage: "LOG [n]", Max: 1, Run: d.logVerb},
	}
}

func (d *daemon) status(_ []string, out *adminproto.Reply) (string, error) {
	refs, _ := d.host.SystemContext().ServiceReferences("", "")
	out.Row("framework=%s state=%s bundles=%d services=%d instances=%d exports=%d",
		d.host.Name(), d.host.State(), len(d.host.Bundles()), len(refs), len(d.mgr.List()),
		len(d.exportNames()))
	return "", nil
}

func (d *daemon) list(_ []string, out *adminproto.Reply) (string, error) {
	insts := d.mgr.List()
	for _, inst := range insts {
		desc := inst.Descriptor()
		out.Row("%s customer=%s state=%s", desc.ID, desc.Customer, inst.State())
	}
	return adminproto.OKf("%d instance(s)", len(insts))
}

func (d *daemon) create(args []string, _ *adminproto.Reply) (string, error) {
	desc := core.Descriptor{
		ID:             core.InstanceID(args[0]),
		Customer:       args[0],
		Bundles:        []core.BundleSpec{{Location: "app:placeholder", Start: true}},
		SharedServices: args[1:],
	}
	if _, err := d.mgr.Create(desc); err != nil {
		return "", err
	}
	return adminproto.OKf("created %s", args[0])
}

func (d *daemon) bundles(args []string, out *adminproto.Reply) (string, error) {
	inst, ok := d.mgr.Get(core.InstanceID(args[0]))
	if !ok {
		return "", errors.New("no such instance")
	}
	for _, b := range inst.Virtual().Framework().Bundles() {
		out.Row("[%d] %s %s %s", b.ID(), b.SymbolicName(), b.Version(), b.State())
	}
	return "", nil
}

// deploy provisions a bundle artifact end-to-end: metadata resolved from
// the local repository or a peer, chunks fetched over the remote stack,
// digest and signature verified against the deploy policy,
// Require-Bundle dependencies resolved, and the bundle installed and
// started in the host framework.
func (d *daemon) deploy(args []string, out *adminproto.Reply) (string, error) {
	location := args[0]
	errCh := make(chan error, 1)
	d.deployer.Deploy(location, true, func(err error) { errCh <- err })
	if err := <-errCh; err != nil {
		return "", err
	}
	b, _ := d.host.GetBundleByLocation(location)
	art, _ := d.repo.ArtifactAt(location)
	out.Row("= %s %s/%s state=%s digest=%.12s",
		location, b.SymbolicName(), b.Version(), b.State(), art.Digest)
	return adminproto.OKf("deployed %s", location)
}

// repoVerb lists the local artifact repository — each row ends with a
// holders= column naming "local" plus the peers advertising the
// location, queried live from their repository services — or, as REPO
// SEED, publishes the built-in signed sample artifacts so a peer daemon
// can DEPLOY them.
func (d *daemon) repoVerb(args []string, out *adminproto.Reply) (string, error) {
	sub := "LIST"
	if len(args) == 1 {
		sub = strings.ToUpper(args[0])
	}
	switch sub {
	case "LIST":
		arts := d.repo.List()
		var peerLocs map[string][]string
		if len(arts) > 0 { // nothing to annotate → skip the peer sweep
			peerLocs = d.peerLocations()
		}
		for _, art := range arts {
			out.Row("%s", adminproto.RepoListLine(art, append([]string{"local"}, peerLocs[art.Location]...)))
		}
		return adminproto.OKf("%d artifact(s)", len(arts))
	case "SEED":
		arts, payloads, err := provision.SampleArtifacts(0)
		if err != nil {
			return "", err
		}
		for i, art := range arts {
			if err := d.repo.Add(art, payloads[i]); err != nil {
				return "", err
			}
		}
		return adminproto.OKf("seeded %d artifact(s)", len(arts))
	default:
		return "", adminproto.ErrUsage
	}
}

func (d *daemon) logVerb(args []string, out *adminproto.Reply) (string, error) {
	n := 10
	if len(args) == 1 {
		var err error
		if n, err = adminproto.Count(args[0]); err != nil {
			return "", adminproto.ErrUsage
		}
	}
	ctx := d.host.SystemContext()
	if ref, ok := ctx.ServiceReference(services.LogServiceClass); ok {
		if svc, err := ctx.GetService(ref); err == nil {
			entries := svc.(*services.LogService).Entries()
			if len(entries) > n {
				entries = entries[len(entries)-n:]
			}
			for _, e := range entries {
				out.Row("%s", e)
			}
		}
	}
	return "", nil
}
