package containerd

import (
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// AppInstance is the per-container behaviour of one application
// instance: the request handler and an optional background process.
type AppInstance struct {
	Handler    Handler
	Background func(clk *vclock.Virtual, stop *vclock.Gate)
}

// AppModel describes how containers of a given image behave. The
// catalog package defines one per evaluated edge service; the Docker
// engine and the kubelet resolve images through it when building
// container specs.
type AppModel struct {
	// Port is the container port the app serves; 0 for sidecars.
	Port uint16
	// ReadyDelay is the median app initialization time after exec.
	ReadyDelay time.Duration
	// ReadySigma is the log-normal shape of ReadyDelay.
	ReadySigma float64
	// Instantiate builds the per-instance behaviour; vols maps volume
	// names available to the pod/container group.
	Instantiate func(vols map[string]*Volume) AppInstance
}

// AppResolver maps image references to application models.
type AppResolver interface {
	Resolve(image string) (AppModel, error)
}

// instantiate is a nil-safe helper for building the app instance.
func (m AppModel) instantiate(vols map[string]*Volume) AppInstance {
	if m.Instantiate == nil {
		return AppInstance{Handler: HandlerFunc(func([]byte) []byte {
			return []byte("ok")
		})}
	}
	return m.Instantiate(vols)
}

// BuildSpec assembles a containerd Spec from an app model.
func (m AppModel) BuildSpec(name, image string, labels map[string]string, vols map[string]*Volume) Spec {
	inst := m.instantiate(vols)
	var mounts []*Volume
	for _, v := range vols {
		mounts = append(mounts, v)
	}
	return Spec{
		Name:       name,
		Image:      image,
		Port:       m.Port,
		ReadyDelay: m.ReadyDelay,
		ReadySigma: m.ReadySigma,
		Handler:    inst.Handler,
		Background: inst.Background,
		Labels:     labels,
		Mounts:     mounts,
	}
}
