package catalog

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/registry"
)

// Serverless (WebAssembly) variants of the single-container catalog
// services, for the paper's future-work evaluation: same request
// behaviour, but shipped as one small AOT-compilable module instead of
// a layered container image. Nginx+Py has no variant — serverless
// functions are single units, which is itself one of the trade-offs the
// future work wants to surface.

// WasmModuleRef returns the module reference for a service key.
func WasmModuleRef(key string) string { return "fn/" + key + ".wasm" }

// wasmModuleSizes are the module artifact sizes: orders of magnitude
// below the container images of Table I.
var wasmModuleSizes = map[string]int64{
	"asm":    64 * registry.KiB,
	"nginx":  1536 * registry.KiB, // a static file server module
	"resnet": 45 * registry.MiB,   // model weights embedded
}

// wasmTable holds the serverless variants of the single-container
// services, built once and shared like table.
var wasmTable = []Service{wasmVariant("asm"), wasmVariant("nginx"), wasmVariant("resnet")}

// WasmService returns the serverless variant of a catalog service. Only
// single-container services have one. Its Images and their Layers are
// shared and read-only.
func WasmService(key string) (Service, error) {
	wasmKey := key + "-wasm"
	for _, s := range wasmTable {
		if s.Key == wasmKey {
			return s, nil
		}
	}
	base, err := ByKey(key)
	if err != nil {
		return Service{}, err
	}
	return Service{}, fmt.Errorf("catalog: %s has %d containers; serverless variants are single functions", key, base.Containers)
}

// wasmVariant builds the serverless variant of the single-container
// catalog service key.
func wasmVariant(key string) Service {
	base, _ := ByKey(key)
	ref := WasmModuleRef(key)
	return Service{
		Key:            key + "-wasm",
		DisplayName:    base.DisplayName + " (Wasm)",
		Images:         []registry.Image{{Ref: ref, Layers: []registry.Layer{{Digest: registry.LayerDigest(key+"-wasm", 0), Size: wasmModuleSizes[key]}}}},
		RegistryHost:   base.RegistryHost,
		Containers:     1,
		HTTPMethod:     base.HTTPMethod,
		RequestPayload: base.RequestPayload,
		ResponseSize:   base.ResponseSize,
		Definition: fmt.Sprintf(`apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: fn
        image: %s
        ports:
        - containerPort: 80
`, ref),
	}
}

// PushWasm publishes all serverless modules to reg.
func PushWasm(reg *registry.Registry) {
	for _, s := range wasmTable {
		for _, im := range s.Images {
			reg.Push(im)
		}
	}
}

// wasmResolver resolves module references to the same request behaviour
// as the container variants, minus container-style startup: isolates
// have no separate app initialization.
type wasmResolver struct{}

// WasmResolver returns the resolver for serverless modules.
func WasmResolver() containerd.AppResolver { return wasmResolver{} }

func (wasmResolver) Resolve(module string) (containerd.AppModel, error) {
	switch module {
	case WasmModuleRef("asm"):
		return containerd.AppModel{
			Port: 80,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				return containerd.AppInstance{Handler: newStaticFile("asmttpd ok\n", 64, 120*time.Microsecond)}
			},
		}, nil
	case WasmModuleRef("nginx"):
		return containerd.AppModel{
			Port: 80,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				return containerd.AppInstance{Handler: newStaticFile("<html>nginx</html>\n", 612, 250*time.Microsecond)}
			},
		}, nil
	case WasmModuleRef("resnet"):
		return containerd.AppModel{
			Port: 80,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				// Inference inside the sandbox runs somewhat slower than
				// native TensorFlow Serving.
				return containerd.AppInstance{Handler: newInference(95*time.Millisecond, 0.25, 280)}
			},
		}, nil
	}
	return containerd.AppModel{}, fmt.Errorf("catalog: no model for module %q", module)
}

// CombinedResolver resolves both container images and wasm modules —
// the side-by-side deployment needs one resolver covering both worlds.
type CombinedResolver struct{}

// Resolve implements containerd.AppResolver.
func (CombinedResolver) Resolve(image string) (containerd.AppModel, error) {
	if m, err := (wasmResolver{}).Resolve(image); err == nil {
		return m, nil
	}
	return appResolver{}.Resolve(image)
}
