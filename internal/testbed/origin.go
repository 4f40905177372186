package testbed

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// RegisterCatalogService registers one catalog service under the given
// public address: the controller annotates its definition and installs
// the intercept rule, and a cloud origin serving the same application
// is brought up behind the WAN so the "perceived cloud" of Fig. 1
// really exists.
func (tb *Testbed) RegisterCatalogService(svc catalog.Service, addr netem.HostPort) (*ServiceHandle, error) {
	coreSvc, err := tb.Controller.RegisterService(addr, svc.Definition)
	if err != nil {
		return nil, err
	}
	if err := tb.startOrigin(svc, addr); err != nil {
		return nil, err
	}
	tb.Cloud.SetInstance(coreSvc.Name, addr)
	h := &ServiceHandle{Svc: coreSvc, Addr: addr, Catalog: svc}
	tb.services = append(tb.services, h)
	return h, nil
}

// RegisterMany registers n services of one catalog type at the standard
// trace addresses (203.0.113.x:80) — "a single service type per test
// run" (§VI).
func (tb *Testbed) RegisterMany(svc catalog.Service, n int) ([]*ServiceHandle, error) {
	handles := make([]*ServiceHandle, 0, n)
	for i := 0; i < n; i++ {
		h, err := tb.RegisterCatalogService(svc, trace.ServiceAddr(i))
		if err != nil {
			return nil, err
		}
		handles = append(handles, h)
	}
	return handles, nil
}

// startOrigin runs the service natively on a cloud host with the
// registered public address.
func (tb *Testbed) startOrigin(svc catalog.Service, addr netem.HostPort) error {
	tb.nextOrigin++
	host := tb.Net.NewHost(fmt.Sprintf("origin-%03d", tb.nextOrigin), addr.IP)
	port := tb.cloudRouter.Port(tb.nextOrigin)
	tb.Net.Connect(host.NIC(), port, netem.LinkConfig{
		Latency:   2 * time.Millisecond,
		Bandwidth: netem.GbpsToBytes(1),
	})
	tb.cloudRouter.AddRoute(host.IP(), port)

	// Instantiate the application natively (no container): the origin
	// has been running in the cloud all along.
	vols := map[string]*containerd.Volume{}
	for _, v := range originVolumes(svc) {
		vols[v] = containerd.NewVolume(host.Name() + "/" + v)
	}
	var serving *containerd.AppModel
	var instances []containerd.AppInstance
	for _, im := range svc.Images {
		model, err := catalog.CombinedResolver{}.Resolve(im.Ref)
		if err != nil {
			return err
		}
		inst := model.Instantiate(vols)
		instances = append(instances, inst)
		if model.Port != 0 && serving == nil {
			m := model
			serving = &m
		}
	}
	if serving == nil {
		return fmt.Errorf("testbed: service %s has no serving container", svc.Key)
	}
	stop := vclock.NewGate() // origins run for the whole simulation
	var handler containerd.Handler
	for _, inst := range instances {
		if inst.Background != nil {
			inst.Background(tb.Clock, stop)
		}
		if inst.Handler != nil && handler == nil {
			handler = inst.Handler
		}
	}
	ln, err := host.Listen(addr.Port)
	if err != nil {
		return err
	}
	ln.Serve(func(req []byte, stage int) netem.Step {
		if stage == 0 {
			return netem.After(handler.Delay(req))
		}
		return netem.Reply(handler.Respond(req))
	})
	return nil
}

// originVolumes returns the volume names a service's containers share.
func originVolumes(svc catalog.Service) []string {
	if svc.Key == "nginxpy" {
		return []string{"www"}
	}
	return nil
}
