package core

import (
	"fmt"
	"reflect"
	"testing"

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
