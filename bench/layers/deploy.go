package layers

import (
	"reflect"
	"sort"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/testbed"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
	"github.com/c3lab/transparentedge/internal/yaml"
)

// deploy is the host time to simulate one Create + Scale Up (image
// cached) of an nginx service until its instance is ready, on the
// Docker or the Kubernetes substrate. Its by-product is the virtual
// duration of the Scale Up request, which PhaseResult does not export.
func deploy(m *M, kind string) {
	if m.N > 30 {
		m.N = 30 // the testbed's WAN router has 256 ports, one per service origin
	}
	clk := vclock.New()
	clk.Run(func() {
		tb, err := testbed.New(clk, testbed.Options{WithDocker: kind == "docker", WithKube: kind == "kube", Seed: 1})
		if err != nil {
			m.Failf("testbed.New: %v", err)
			return
		}
		var cl cluster.Cluster = tb.Docker
		if kind == "kube" {
			cl = tb.Kube
		}
		nginx, _ := catalog.ByKey("nginx")
		handles, err := tb.RegisterMany(nginx, measurements*m.N)
		if err == nil {
			err = tb.PrePull(handles[0], cl.Name())
		}
		if err != nil {
			m.Failf("register: %v", err)
			return
		}
		var scaleUps []time.Duration
		next := 0
		m.Measure(func() {
			// Each measurement starts from an empty cluster.
			for _, h := range handles[:next] {
				if cl.Created(h.Svc.Name) {
					cl.ScaleDown(h.Svc.Name)
					cl.Remove(h.Svc.Name)
				}
			}
			clk.Sleep(10 * time.Second)
		}, func(n int) {
			batch := handles[next : next+n]
			next += n
			for _, h := range batch {
				spec := h.Svc.Annotated.Spec
				if err := cl.Create(spec); err != nil {
					m.Failf("create %s: %v", spec.Name, err)
					return
				}
				t0 := clk.Now()
				if err := cl.ScaleUp(spec.Name); err != nil {
					m.Failf("scale up %s: %v", spec.Name, err)
					return
				}
				scaleUps = append(scaleUps, clk.Since(t0))
			}
			for _, h := range batch {
				deadline := clk.Now().Add(2 * time.Minute)
				for len(cl.Instances(h.Svc.Name)) == 0 {
					if clk.Now().After(deadline) {
						m.Failf("%s not ready two virtual minutes after scale-up", h.Svc.Name)
						return
					}
					clk.Sleep(100 * time.Millisecond)
				}
			}
		})
		sort.Slice(scaleUps, func(i, j int) bool { return scaleUps[i] < scaleUps[j] })
		if len(scaleUps) > 0 {
			m.SetVirt(kind+".virt_scaleup_p50_ms", float64(scaleUps[len(scaleUps)/2])/float64(time.Millisecond))
		}
	})
}

// annotatedDeployment is the completed nginx Deployment manifest the
// annotation engine emits — the document the controller parses and
// renders on every registration.
func annotatedDeployment(m *M) string {
	nginx, _ := catalog.ByKey("nginx")
	a, err := core.Annotate(nginx.Definition, core.AnnotateOptions{UniqueName: core.UniqueNameFor(trace.ServiceAddr(0)), ServicePort: 80})
	if err != nil {
		m.Failf("annotate: %v", err)
		return ""
	}
	return a.DeploymentYAML
}

func yamlUnmarshal(m *M) {
	doc := annotatedDeployment(m)
	want, err := yaml.Unmarshal(doc)
	if err != nil {
		m.Failf("unmarshal: %v", err)
		return
	}
	m.Measure(nil, func(n int) {
		for i := 0; i < n; i++ {
			got, err := yaml.Unmarshal(doc)
			if err != nil || (i == 0 && !reflect.DeepEqual(got, want)) {
				m.Failf("unmarshal %d: %v", i, err)
				return
			}
		}
	})
}

func yamlMarshal(m *M) {
	v, err := yaml.Unmarshal(annotatedDeployment(m))
	if err != nil {
		m.Failf("unmarshal: %v", err)
		return
	}
	var out string
	m.Measure(nil, func(n int) {
		for i := 0; i < n; i++ {
			out = yaml.Marshal(v)
		}
	})
	if back, err := yaml.Unmarshal(out); err != nil || !reflect.DeepEqual(back, v) {
		m.Failf("marshal does not round-trip: %v", err)
	}
}

func histRecord(m *M) {
	h := metrics.NewHist("driver")
	m.Measure(nil, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(i&0xFFFFF) * time.Microsecond)
		}
	})
	if want := int64(measurements * m.N); h.Count() != want {
		m.Failf("histogram counted %d of %d records", h.Count(), want)
	}
}

// testbedNew is the host time to build one default testbed (both
// clusters, 20 clients, registries, controller started).
func testbedNew(m *M) {
	m.Measure(nil, func(n int) {
		for i := 0; i < n; i++ {
			clk := vclock.New()
			clk.Run(func() {
				tb, err := testbed.New(clk, testbed.Options{Seed: int64(i + 1)})
				if err != nil || tb.Controller == nil || tb.Docker == nil || tb.Kube == nil {
					m.Failf("testbed.New: %v", err)
				}
			})
		}
	})
}
