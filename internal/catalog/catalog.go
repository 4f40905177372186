// Package catalog defines the four edge services of the paper's
// evaluation (Table I): the asmttpd Assembler web server, Nginx,
// TensorFlow Serving with a ResNet50 model, and the Nginx + Python
// two-container combination. Each service carries its image layout
// (size and layer count as published), its runtime behaviour model
// (readiness delay, request handling), the lean YAML definition a
// developer would register, and the client workload that exercises it.
package catalog

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/containerd"
	"github.com/c3lab/transparentedge/internal/registry"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Registry hosts for the images.
const (
	RegistryHub = "hub"
	RegistryGCR = "gcr"
)

// Image references exactly as in Table I.
const (
	ImageAsm    = "josefhammer/web-asm:amd64"
	ImageNginx  = "nginx:1.23.2"
	ImageResNet = "gcr.io/tensorflow-serving/resnet"
	ImagePy     = "josefhammer/env-writer-py"
)

// Service is one evaluated edge service.
type Service struct {
	// Key is the short identifier used across experiments
	// ("asm", "nginx", "resnet", "nginxpy").
	Key string
	// DisplayName is the row label of Table I.
	DisplayName string
	// Images lists the image manifests the service needs.
	Images []registry.Image
	// RegistryHost says which upstream hosts the images.
	RegistryHost string
	// Containers is the number of containers per instance.
	Containers int
	// HTTPMethod is the verb the clients use.
	HTTPMethod string
	// RequestPayload is the client request body size in bytes
	// (83 KiB cat picture for ResNet).
	RequestPayload int
	// ResponseSize is the typical response body size in bytes.
	ResponseSize int
	// Definition is the lean YAML the developer registers; the
	// controller's annotation engine completes it.
	Definition string
}

// TotalImageBytes sums all image sizes (the Table I "Size" column).
func (s Service) TotalImageBytes() int64 {
	var total int64
	for _, im := range s.Images {
		total += im.TotalSize()
	}
	return total
}

// TotalLayers counts layers across images (the Table I "Layers" column).
func (s Service) TotalLayers() int {
	n := 0
	for _, im := range s.Images {
		n += len(im.Layers)
	}
	return n
}

// nginxLayers builds the shared Nginx image manifest: 135 MiB across
// 6 layers. Nginx+Py reuses these exact digests, so the containerd
// store deduplicates them — the paper's layer-sharing observation.
func nginxImage() registry.Image {
	sizes := []int64{55, 25, 20, 15, 12, 8} // MiB, sums to 135
	im := registry.Image{Ref: ImageNginx}
	for i, mb := range sizes {
		im.Layers = append(im.Layers, registry.Layer{
			Digest: registry.LayerDigest("nginx-1.23.2", i),
			Size:   mb * registry.MiB,
		})
	}
	return im
}

func asmImage() registry.Image {
	return registry.Image{Ref: ImageAsm, Layers: []registry.Layer{{
		Digest: registry.LayerDigest("web-asm", 0),
		Size:   6330, // 6.18 KiB
	}}}
}

func resnetImage() registry.Image {
	sizes := []int64{80, 60, 50, 40, 30, 20, 15, 8, 5} // MiB, sums to 308
	im := registry.Image{Ref: ImageResNet}
	for i, mb := range sizes {
		im.Layers = append(im.Layers, registry.Layer{
			Digest: registry.LayerDigest("tf-serving-resnet", i),
			Size:   mb * registry.MiB,
		})
	}
	return im
}

func pyImage() registry.Image {
	// Nginx+Py totals 181 MiB / 7 layers: nginx (135/6) + this 46 MiB layer.
	return registry.Image{Ref: ImagePy, Layers: []registry.Layer{{
		Digest: registry.LayerDigest("env-writer-py", 0),
		Size:   46 * registry.MiB,
	}}}
}

// Services returns the Table I catalog in row order.
func Services() []Service {
	return []Service{
		{
			Key:            "asm",
			DisplayName:    "Asm",
			Images:         []registry.Image{asmImage()},
			RegistryHost:   RegistryHub,
			Containers:     1,
			HTTPMethod:     "GET",
			RequestPayload: 90,
			ResponseSize:   64,
			Definition: `apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: web
        image: josefhammer/web-asm:amd64
        ports:
        - containerPort: 80
`,
		},
		{
			Key:            "nginx",
			DisplayName:    "Nginx",
			Images:         []registry.Image{nginxImage()},
			RegistryHost:   RegistryHub,
			Containers:     1,
			HTTPMethod:     "GET",
			RequestPayload: 110,
			ResponseSize:   612,
			Definition: `apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
`,
		},
		{
			Key:            "resnet",
			DisplayName:    "ResNet",
			Images:         []registry.Image{resnetImage()},
			RegistryHost:   RegistryGCR,
			Containers:     1,
			HTTPMethod:     "POST",
			RequestPayload: 83 * 1024, // the 83 KiB cat picture
			ResponseSize:   280,
			Definition: `apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      containers:
      - name: serving
        image: gcr.io/tensorflow-serving/resnet
        ports:
        - containerPort: 8501
`,
		},
		{
			Key:            "nginxpy",
			DisplayName:    "Nginx+Py",
			Images:         []registry.Image{nginxImage(), pyImage()},
			RegistryHost:   RegistryHub,
			Containers:     2,
			HTTPMethod:     "GET",
			RequestPayload: 110,
			ResponseSize:   330,
			Definition: `apiVersion: apps/v1
kind: Deployment
spec:
  template:
    spec:
      volumes:
      - name: www
      containers:
      - name: nginx
        image: nginx:1.23.2
        ports:
        - containerPort: 80
        volumeMounts:
        - name: www
          mountPath: /usr/share/nginx/html
      - name: app
        image: josefhammer/env-writer-py
        volumeMounts:
        - name: www
          mountPath: /www
`,
		},
	}
}

// ByKey returns the catalog service with the given key.
func ByKey(key string) (Service, error) {
	for _, s := range Services() {
		if s.Key == key {
			return s, nil
		}
	}
	return Service{}, fmt.Errorf("catalog: unknown service %q", key)
}

// PushAll publishes every catalog image to its home registry.
func PushAll(hub, gcr *registry.Registry) {
	for _, s := range Services() {
		target := hub
		if s.RegistryHost == RegistryGCR {
			target = gcr
		}
		for _, im := range s.Images {
			target.Push(im)
		}
	}
}

// PushAllTo publishes every catalog image to one registry (the private
// registry scenario of Fig. 13 mirrors everything locally).
func PushAllTo(reg *registry.Registry) {
	for _, s := range Services() {
		for _, im := range s.Images {
			reg.Push(im)
		}
	}
}

// Resolver returns the AppResolver covering all catalog images.
func Resolver() containerd.AppResolver { return appResolver{} }

type appResolver struct{}

func (appResolver) Resolve(image string) (containerd.AppModel, error) {
	switch image {
	case ImageAsm:
		return containerd.AppModel{
			Port:       80,
			ReadyDelay: 2 * time.Millisecond, // negligible launch time
			ReadySigma: 0.2,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				return containerd.AppInstance{Handler: staticFile("asmttpd ok\n", 64, 100*time.Microsecond)}
			},
		}, nil
	case ImageNginx:
		return containerd.AppModel{
			Port:       80,
			ReadyDelay: 45 * time.Millisecond, // config parse + workers
			ReadySigma: 0.2,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				if www, ok := vols["www"]; ok {
					return containerd.AppInstance{Handler: volumeFile(www, "index.html", 200*time.Microsecond)}
				}
				return containerd.AppInstance{Handler: staticFile("<html>nginx</html>\n", 612, 200*time.Microsecond)}
			},
		}, nil
	case ImageResNet:
		return containerd.AppModel{
			Port:       8501,
			ReadyDelay: 1400 * time.Millisecond, // ResNet50 model load
			ReadySigma: 0.20,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				return containerd.AppInstance{Handler: inference(70*time.Millisecond, 0.25, 280)}
			},
		}, nil
	case ImagePy:
		return containerd.AppModel{
			ReadyDelay: 260 * time.Millisecond, // CPython interpreter start
			ReadySigma: 0.2,
			Instantiate: func(vols map[string]*containerd.Volume) containerd.AppInstance {
				www := vols["www"]
				return containerd.AppInstance{Background: envWriter(www)}
			},
		}, nil
	}
	return containerd.AppModel{}, fmt.Errorf("catalog: no model for image %q", image)
}

// staticFile serves a fixed short document, padded to size bytes.
func staticFile(content string, size int, proc time.Duration) containerd.Handler {
	body := make([]byte, size)
	copy(body, content)
	return containerd.HandlerFunc(func(clk *vclock.Virtual, req []byte) []byte {
		clk.Sleep(proc)
		return body
	})
}

// volumeFile serves a file from the shared volume (the Nginx side of
// Nginx+Py).
func volumeFile(vol *containerd.Volume, path string, proc time.Duration) containerd.Handler {
	return containerd.HandlerFunc(func(clk *vclock.Virtual, req []byte) []byte {
		clk.Sleep(proc)
		if data, ok := vol.Read(path); ok {
			return data
		}
		return []byte("503 index.html not written yet\n")
	})
}

// inference models TensorFlow Serving classification: a log-normal
// processing delay and a short JSON response.
func inference(median time.Duration, sigma float64, respSize int) containerd.Handler {
	rng := vclock.NewRand(int64(median))
	resp := make([]byte, respSize)
	copy(resp, `{"predictions":[{"label":"tabby cat","score":0.82}]}`)
	return containerd.HandlerFunc(func(clk *vclock.Virtual, req []byte) []byte {
		clk.Sleep(rng.LogNormal(median, sigma))
		return resp
	})
}

// envWriter is the Python application: once per second it writes the
// gathered environment info and current timestamp to index.html on the
// shared volume.
func envWriter(www *containerd.Volume) func(clk *vclock.Virtual, stop *vclock.Gate) {
	return func(clk *vclock.Virtual, stop *vclock.Gate) {
		if www == nil {
			return
		}
		n := 0
		for {
			n++
			page := fmt.Sprintf("<html><body>env-writer tick %d at %s</body></html>",
				n, clk.Now().Format(time.RFC3339))
			www.Write("index.html", []byte(page))
			if stop.WaitTimeout(clk, time.Second) {
				return
			}
		}
	}
}
