// Package core implements the paper's contribution: the SDN controller
// for transparent access to edge services with distributed on-demand
// deployment. It contains the FlowMemory, the Dispatcher (Fig. 7), the
// pluggable Global/Local Scheduler mechanism, the service-definition
// annotation engine (§V), port-readiness probing, and idle scale-down.
package core

import (
	"fmt"
	"strings"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/yaml"
)

// EdgeServiceLabel is the label the controller adds to every deployment
// "to be able to address and query edge services in the cluster
// distinctly" (§V).
const EdgeServiceLabel = "edge.service"

// AnnotateOptions configure the annotation engine.
type AnnotateOptions struct {
	// UniqueName is the worldwide-unique service name to assign; it is
	// mandatory ("something developers may easily forget").
	UniqueName string
	// ServicePort is the exposed port of the generated Service; it
	// defaults to the first container port.
	ServicePort uint16
	// SchedulerName is the custom Local Scheduler configured for the
	// target edge cluster; empty leaves the cluster default.
	SchedulerName string
}

// Annotated is the output of the annotation engine.
type Annotated struct {
	// DeploymentYAML is the completed Kubernetes Deployment definition.
	DeploymentYAML string
	// ServiceYAML is the (generated or passed-through) Service
	// definition.
	ServiceYAML string
	// Spec is the cluster-agnostic spec derived from the definitions —
	// the same definition drives Docker and Kubernetes clusters.
	Spec cluster.Spec
}

// UniqueNameFor derives the worldwide-unique service name from the
// registered public address.
func UniqueNameFor(addr netem.HostPort) string {
	return "edge-" + strings.ReplaceAll(addr.IP.String(), ".", "-") + fmt.Sprintf("-%d", addr.Port)
}

// Annotate completes a developer-provided service definition: it sets
// the unique name, adds the required matchLabels plus the edge.service
// label, forces replicas to zero ("scale to zero"), sets the
// schedulerName when a Local Scheduler is configured, and generates the
// Kubernetes Service definition unless the developer already included
// one. Only the image name is mandatory in the input.
func Annotate(definition string, opts AnnotateOptions) (*Annotated, error) {
	if opts.UniqueName == "" {
		return nil, fmt.Errorf("core: annotation requires a unique service name")
	}
	docs, err := yaml.UnmarshalAll(definition)
	if err != nil {
		return nil, fmt.Errorf("core: service definition: %w", err)
	}
	var deployment map[string]any
	var serviceDoc map[string]any
	for _, doc := range docs {
		m, ok := doc.(map[string]any)
		if !ok {
			continue
		}
		switch m["kind"] {
		case "Service":
			serviceDoc = m
		default:
			// A Deployment, possibly with kind omitted in a lean file.
			if deployment == nil {
				deployment = m
			}
		}
	}
	if deployment == nil {
		return nil, fmt.Errorf("core: service definition contains no Deployment")
	}

	name := opts.UniqueName
	labels := map[string]any{
		"app":            name,
		EdgeServiceLabel: name,
	}

	// Header and metadata.
	setDefault(deployment, "apiVersion", "apps/v1")
	deployment["kind"] = "Deployment"
	meta := ensureMap(deployment, "metadata")
	meta["name"] = name
	mergeLabels(ensureMap(meta, "labels"), labels)

	spec := ensureMap(deployment, "spec")
	// Scale to zero by default.
	spec["replicas"] = int64(0)
	mergeLabels(ensureMap(ensureMap(spec, "selector"), "matchLabels"), labels)

	template := ensureMap(spec, "template")
	mergeLabels(ensureMap(ensureMap(template, "metadata"), "labels"), labels)
	podSpec := ensureMap(template, "spec")
	if opts.SchedulerName != "" {
		podSpec["schedulerName"] = opts.SchedulerName
	}

	// Containers: image is the one mandatory field.
	containersAny, ok := podSpec["containers"].([]any)
	if !ok || len(containersAny) == 0 {
		return nil, fmt.Errorf("core: service %s: definition has no containers", name)
	}
	var defs []cluster.ContainerDef
	for i, c := range containersAny {
		cm, ok := c.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("core: service %s: container %d is not a mapping", name, i)
		}
		image, _ := cm["image"].(string)
		if image == "" {
			return nil, fmt.Errorf("core: service %s: container %d is missing the mandatory image", name, i)
		}
		cname, _ := cm["name"].(string)
		if cname == "" {
			cname = fmt.Sprintf("c%d", i)
			cm["name"] = cname
		}
		var port uint16
		if ports, ok := cm["ports"].([]any); ok && len(ports) > 0 {
			if pm, ok := ports[0].(map[string]any); ok {
				if cp, ok := pm["containerPort"].(int64); ok && cp > 0 && cp < 65536 {
					port = uint16(cp)
				}
			}
		}
		defs = append(defs, cluster.ContainerDef{Name: cname, Image: image, Port: port})
	}

	// Volumes.
	var volumes []string
	if vs, ok := podSpec["volumes"].([]any); ok {
		for _, v := range vs {
			if vm, ok := v.(map[string]any); ok {
				if vn, _ := vm["name"].(string); vn != "" {
					volumes = append(volumes, vn)
				}
			}
		}
	}

	var targetPort uint16
	for _, d := range defs {
		if d.Port != 0 {
			targetPort = d.Port
			break
		}
	}
	if targetPort == 0 {
		return nil, fmt.Errorf("core: service %s: no container exposes a port", name)
	}
	servicePort := opts.ServicePort
	if servicePort == 0 {
		servicePort = targetPort
	}

	// Generate the Service definition unless the developer included one.
	if serviceDoc == nil {
		serviceDoc = map[string]any{
			"apiVersion": "v1",
			"kind":       "Service",
			"metadata": map[string]any{
				"name":   name,
				"labels": copyAnyMap(labels),
			},
			"spec": map[string]any{
				"selector": copyAnyMap(labels),
				"ports": []any{map[string]any{
					"port":       int64(servicePort),
					"targetPort": int64(targetPort),
					"protocol":   "TCP",
				}},
			},
		}
	} else {
		smeta := ensureMap(serviceDoc, "metadata")
		smeta["name"] = name
		mergeLabels(ensureMap(smeta, "labels"), labels)
		mergeLabels(ensureMap(ensureMap(serviceDoc, "spec"), "selector"), labels)
	}

	stringLabels := map[string]string{"app": name, EdgeServiceLabel: name}
	out := &Annotated{
		DeploymentYAML: yaml.Marshal(deployment),
		ServiceYAML:    yaml.Marshal(serviceDoc),
		Spec: cluster.Spec{
			Name:          name,
			Labels:        stringLabels,
			Containers:    defs,
			Volumes:       volumes,
			SchedulerName: opts.SchedulerName,
			ServicePort:   servicePort,
		},
	}
	if err := out.Spec.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// ensureMap returns m[key] as a mapping, creating it when absent.
func ensureMap(m map[string]any, key string) map[string]any {
	if child, ok := m[key].(map[string]any); ok {
		return child
	}
	child := map[string]any{}
	m[key] = child
	return child
}

func setDefault(m map[string]any, key string, val any) {
	if _, ok := m[key]; !ok {
		m[key] = val
	}
}

func mergeLabels(dst map[string]any, labels map[string]any) {
	for k, v := range labels {
		dst[k] = v
	}
}

func copyAnyMap(in map[string]any) map[string]any {
	out := make(map[string]any, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// namePlaceholder stands in for the unique name while a registration
// template is built. It has UniqueNameFor's shape, so YAML renders it
// exactly as it renders every name of that shape: plain, unquoted.
const namePlaceholder = "edge-0-0-0-0-0"

// Annotate writes the unique name at seven places of the Deployment
// (its name, two labels, two matchLabels, two template labels) and at
// five of the Service (its name, two labels, two selector entries).
const (
	deploymentNameUses = 7
	serviceNameUses    = 5
)

// templateKey is what a registration template depends on: Annotate's
// inputs other than the unique name.
type templateKey struct {
	definition  string
	servicePort uint16
}

// annotateTemplate is Annotate's output for one definition and service
// port under namePlaceholder, with both manifests split where the name
// goes. Registrations of one definition at several addresses differ
// only in the name, so each one copies the spec and joins the pieces
// around its own name instead of parsing and rendering the definition
// again.
type annotateTemplate struct {
	spec       cluster.Spec
	deployment []string
	service    []string
}

// newAnnotateTemplate builds the template, or returns nil when the
// definition fails to annotate or renders the placeholder text itself
// (the split would then cut the definition's own text): the caller
// annotates such definitions in full.
func newAnnotateTemplate(key templateKey) *annotateTemplate {
	a, err := Annotate(key.definition, AnnotateOptions{UniqueName: namePlaceholder, ServicePort: key.servicePort})
	if err != nil {
		return nil
	}
	t := &annotateTemplate{
		spec:       a.Spec,
		deployment: strings.Split(a.DeploymentYAML, namePlaceholder),
		service:    strings.Split(a.ServiceYAML, namePlaceholder),
	}
	if len(t.deployment) != deploymentNameUses+1 || len(t.service) != serviceNameUses+1 {
		return nil
	}
	return t
}

// fill is what Annotate returns for the template's definition under
// name. The spec shares Containers and Volumes with the template; nothing
// writes to them.
func (t *annotateTemplate) fill(name string) *Annotated {
	spec := t.spec
	spec.Name = name
	spec.Labels = map[string]string{"app": name, EdgeServiceLabel: name}
	return &Annotated{
		DeploymentYAML: strings.Join(t.deployment, name),
		ServiceYAML:    strings.Join(t.service, name),
		Spec:           spec,
	}
}

// templateName reports whether name has UniqueNameFor's shape, "edge-"
// followed by digits and dashes: the names a template may be filled
// with.
func templateName(name string) bool {
	rest, ok := strings.CutPrefix(name, "edge-")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if c := rest[i]; c != '-' && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}
