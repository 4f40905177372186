package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// newRegisterController is a controller with one switch and one stub
// cluster: enough to register services.
func newRegisterController(t testing.TB, clk *vclock.Virtual) *Controller {
	t.Helper()
	n := netem.NewNetwork(clk, 1)
	sw := openflow.NewSwitch(n, "ovs", 2)
	host := n.NewHost("ctrl", netem.ParseIP("10.0.254.1"))
	n.Connect(host.NIC(), sw.Port(1), netem.LinkConfig{})
	ctrl, err := New(clk, Config{Host: host, Switch: sw, Clusters: []cluster.Cluster{&stubCluster{name: "edge"}}})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// registeredDefinitions are the definitions the oracle registers: every
// Table I service and Wasm variant, a developer's own Service, two that
// render the template placeholder themselves — one literally, one
// through a YAML escape — and one that holds it only in a comment.
func registeredDefinitions() []string {
	defs := []string{leanNginx, leanNginxWithService}
	for _, s := range catalog.Services() {
		defs = append(defs, s.Definition)
		if w, err := catalog.WasmService(s.Key); err == nil {
			defs = append(defs, w.Definition)
		}
	}
	return append(defs,
		leanNginx+"metadata:\n  labels:\n    owner: "+namePlaceholder+"\n",
		leanNginx+"metadata:\n  labels:\n    owner: \"edge-0-0-0-0\\x2d0\"\n",
		"# owner: "+namePlaceholder+"\n"+leanNginx,
	)
}

// TestRegisteredAnnotationMatchesAnnotate is the oracle for the
// registration templates: every registration's annotation equals what
// Annotate returns for its definition, name and port.
func TestRegisteredAnnotationMatchesAnnotate(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		ctrl := newRegisterController(t, clk)
		for i, def := range registeredDefinitions() {
			for _, port := range []uint16{80, 8080} {
				for k := 1; k <= 3; k++ {
					addr := netem.HostPort{IP: netem.ParseIP(fmt.Sprintf("203.0.%d.%d", i, k)), Port: port}
					svc, err := ctrl.RegisterService(addr, def)
					if err != nil {
						t.Fatalf("definition %d at %s: %v", i, addr, err)
					}
					want, err := Annotate(def, AnnotateOptions{UniqueName: UniqueNameFor(addr), ServicePort: port})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(svc.Annotated, want) {
						t.Errorf("definition %d at %s:\n got %+v\nwant %+v", i, addr, svc.Annotated, want)
					}
				}
			}
		}

		// An invalid definition fails as Annotate fails, every time.
		addr := netem.ParseHostPort("198.51.100.1:80")
		_, want := Annotate("spec: {}", AnnotateOptions{UniqueName: UniqueNameFor(addr), ServicePort: addr.Port})
		for range 2 {
			if _, err := ctrl.RegisterService(addr, "spec: {}"); err == nil || err.Error() != want.Error() {
				t.Errorf("invalid definition: error %v, want %v", err, want)
			}
		}
	})
}

// TestTemplateName: only names of UniqueNameFor's shape fill a template.
func TestTemplateName(t *testing.T) {
	for name, want := range map[string]bool{
		namePlaceholder:              true,
		"edge-203-0-113-1-80":        true,
		"edge-255-255-255-255-65535": true,
		"edge-":                      false,
		"edge-1-x":                   false,
		"edge-1 ":                    false,
		"svc-1-2":                    false,
		"Edge-1":                     false,
	} {
		if got := templateName(name); got != want {
			t.Errorf("templateName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestRegisterServiceAllocs: once a definition's template is built,
// registering it at another address neither parses nor renders YAML.
func TestRegisterServiceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	clk := vclock.New()
	clk.Run(func() {
		ctrl := newRegisterController(t, clk)
		def := catalog.Services()[0].Definition
		ip := netem.ParseIP("203.0.113.1")
		n := testing.AllocsPerRun(20, func() {
			ip++
			if _, err := ctrl.RegisterService(netem.HostPort{IP: ip, Port: 80}, def); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.1f allocations per registration", n)
		if n > 32 {
			t.Errorf("registration allocates %.1f times, want at most 32", n)
		}
	})
}

// TestRegisterConcurrentSameDefinition registers one definition at many
// addresses at once (run it with -race at several Ps): clock goroutines
// run in parallel until they park, so they race on the template table.
func TestRegisterConcurrentSameDefinition(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		ctrl := newRegisterController(t, clk)
		const writers = 8
		var g vclock.Group
		svcs := make([]*Service, writers)
		for i := range writers {
			g.Go(clk, func() {
				svc, err := ctrl.RegisterService(netem.HostPort{IP: netem.ParseIP("203.0.113.1") + netem.IP(i), Port: 80}, leanNginx)
				if err != nil {
					t.Error(err)
				}
				svcs[i] = svc
			})
		}
		g.Wait(clk)
		for i, svc := range svcs {
			if svc == nil {
				continue // its error is reported
			}
			want, _ := Annotate(leanNginx, AnnotateOptions{UniqueName: UniqueNameFor(svc.Addr), ServicePort: 80})
			if !reflect.DeepEqual(svc.Annotated, want) {
				t.Errorf("writer %d: annotation differs from Annotate's", i)
			}
		}
	})
}

// TestRegisterCostFlatInRegistrySize: the registry is append-only, so a
// registration costs the same with a thousand services registered as
// with none — no copy of the tables that grows with their size.
func TestRegisterCostFlatInRegistrySize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	clk := vclock.New()
	clk.Run(func() {
		ctrl := newRegisterController(t, clk)
		def := catalog.Services()[0].Definition
		ip := netem.ParseIP("203.0.113.1")
		// bytesPer registers n services and returns the bytes allocated
		// per registration. The windows are long enough to amortise the
		// registry's own growth, which doubles.
		bytesPer := func(n int) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range n {
				ip++
				if _, err := ctrl.RegisterService(netem.HostPort{IP: ip, Port: 80}, def); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		}
		bytesPer(1) // builds the definition's template
		empty := bytesPer(200)
		bytesPer(1000 - 201)
		full := bytesPer(200)
		t.Logf("%.0f B per registration from 1 service, %.0f B from 1000", empty, full)
		if full > 1.5*empty {
			t.Errorf("a registration allocates %.0f B with 1000 services registered, %.0f B with none: want at most 1.5 times", full, empty)
		}
	})
}

// TestRegisterRacesRegistryReaders registers services on clock
// goroutines while others read the registry (run it with -race at
// several Ps): packet-ins for the addresses being registered,
// FlowRemoved messages carrying the cookies being handed out, a resync
// and a handover. Clock goroutines run in parallel until they park.
// Afterwards each service's cookie is its position in registration
// order, every switch holds every punt rule, and the audits find
// nothing to repair. A FlowRemoved whose cookie numbers no service —
// 0, or one past the last — is ignored.
func TestRegisterRacesRegistryReaders(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}}
		rig := newHandoverRig(t, clk, false, func(cfg *Config) {
			cfg.SwitchFlowIdle = time.Hour
			cfg.MemoryIdle = time.Hour
		}, near)
		ctrl := rig.ctrl
		inst, err := ctrl.PreDeploy(rig.svc.Addr, "near")
		if err != nil {
			t.Fatal(err)
		}
		mobile := netem.ParseIP("192.168.1.10")
		rig.attach(mobile, inst)
		rig.attach(netem.ParseIP("192.168.1.11"), inst)

		const writers, perWriter = 4, 8
		addrOf := func(w, k int) netem.HostPort {
			return netem.HostPort{IP: netem.ParseIP("203.0.113.100") + netem.IP(w*perWriter+k), Port: 80}
		}
		var g vclock.Group
		for w := range writers {
			g.Go(clk, func() {
				for k := range perWriter {
					if _, err := ctrl.RegisterService(addrOf(w, k), leanNginx); err != nil {
						t.Error(err)
					}
				}
			})
			g.Go(clk, func() {
				client := netem.ParseIP("192.168.2.1") + netem.IP(w)
				for k := range perWriter {
					addr := addrOf(w, k)
					ctrl.handlePacketIn(rig.gnb1, openflow.PacketIn{
						Pkt:    &netem.Packet{Src: netem.HostPort{IP: client, Port: 43000}, Dst: addr, Flags: netem.FlagSYN},
						InPort: 2,
					})
					ctrl.FlowRemoved(rig.gnb1, openflow.FlowRemoved{
						Match:       openflow.Match{SrcIP: client, DstIP: addr.IP, DstPort: addr.Port},
						Cookie:      uint64(2 + w*perWriter + k),
						IdleTimeout: true,
					})
				}
			})
		}
		g.Go(clk, ctrl.ResyncNow)
		g.Go(clk, func() { ctrl.Handover(mobile, rig.gnb2, 3) })
		g.Wait(clk)

		services := ctrl.registered()
		if len(services) != 1+writers*perWriter {
			t.Fatalf("%d services registered, want %d", len(services), 1+writers*perWriter)
		}
		for i, svc := range services {
			if svc.cookie != uint64(i+1) {
				t.Errorf("service %d (%s) has cookie %d, want %d", i, svc.Name, svc.cookie, i+1)
			}
			if got, ok := ctrl.ServiceByAddr(svc.Addr); !ok || got != svc {
				t.Errorf("ServiceByAddr(%s) = %v, %v; want service %d", svc.Addr, got, ok, i)
			}
			if got, ok := ctrl.ServiceByName(svc.Name); !ok || got != svc {
				t.Errorf("ServiceByName(%s) = %v, %v; want service %d", svc.Name, got, ok, i)
			}
		}
		for _, sw := range []*openflow.Switch{rig.gnb1, rig.gnb2} {
			held := make(map[openflow.FlowID]bool)
			for _, f := range sw.FlowTable() {
				held[f.ID()] = true
			}
			for _, svc := range services {
				if !held[puntSpec(svc).ID()] {
					t.Errorf("%s lacks the punt rule of %s", sw.DeviceName(), svc.Name)
				}
			}
			if d := ctrl.AuditDiff(sw); d != 0 {
				t.Errorf("AuditDiff(%s) = %d after the race, want 0", sw.DeviceName(), d)
			}
		}

		// The least recently used mapping is the mobile client's, on the
		// service with cookie 1: a FlowRemoved that touches it moves it
		// to the back. One whose cookie numbers no service must not.
		entries := ctrl.fm.Entries()
		if entries[0].Client != mobile {
			t.Fatalf("memory holds %v, want the mobile client's mapping first", entries)
		}
		removed := func(cookie uint64) {
			ctrl.FlowRemoved(rig.gnb2, openflow.FlowRemoved{
				Match:       openflow.Match{SrcIP: mobile, DstIP: rig.svc.Addr.IP, DstPort: rig.svc.Addr.Port},
				Cookie:      cookie,
				IdleTimeout: true,
			})
		}
		for _, cookie := range []uint64{0, uint64(len(services)) + 1} {
			removed(cookie)
			if got := ctrl.fm.Entries(); !slices.Equal(got, entries) {
				t.Errorf("FlowRemoved with cookie %d touched the memory: mapping order\n%v\nwas\n%v", cookie, got, entries)
			}
		}
		removed(rig.svc.cookie)
		if got := ctrl.fm.Entries(); got[len(got)-1].Client != mobile {
			t.Errorf("FlowRemoved with cookie %d left the mobile client's mapping unused: %v", rig.svc.cookie, got)
		}
	})
}
