package faultinject

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// This file extends deterministic fault injection from the cluster and
// registry layer (faultinject.go) down into the network substrate and
// the OpenFlow control channel: seeded link flap schedules, router
// crash windows, switch restarts, and control-channel loss plans. All
// schedules are precomputed from the seed and posted on the virtual
// clock, so a chaos run is exactly reproducible.

// Window is one absolute fault interval, as offsets from plan start.
type Window struct {
	Start time.Duration
	End   time.Duration
}

// NetworkConfig parameterizes a network/control-plane chaos schedule.
// The zero value schedules nothing.
type NetworkConfig struct {
	// Seed derives every schedule and loss stream.
	Seed int64

	// FlapStart/FlapEnd bound the link-flapping window; within it,
	// flapped links alternate up and down with exponential holding
	// times around MeanUp and MeanDown. At FlapEnd every flapped link
	// is forced up.
	FlapStart time.Duration
	FlapEnd   time.Duration
	MeanUp    time.Duration
	MeanDown  time.Duration
	// FlapLinks is how many access links the scenario flaps (the
	// testbed flaps the first FlapLinks client links; default 3).
	FlapLinks int

	// PacketInLoss, FlowModLoss, FlowRemovedLoss, PacketOutLoss, and
	// ReorderRate/CtrlExtraDelay parameterize the switches' control
	// channels (see openflow.ChannelFaults).
	PacketInLoss    float64
	FlowModLoss     float64
	FlowRemovedLoss float64
	PacketOutLoss   float64
	ReorderRate     float64
	CtrlExtraDelay  time.Duration
	// FaultsEnd, when positive, clears the channel fault model at that
	// offset — the invariant checker measures convergence after it.
	FaultsEnd time.Duration

	// RouterCrashes lists crash/restart windows applied to routers
	// passed to CrashRouter.
	RouterCrashes []Window
	// SwitchRestarts lists instants at which switches passed to
	// RestartSwitch reboot and lose their flow tables.
	SwitchRestarts []time.Duration
}

// NetworkPlan schedules network chaos on a virtual clock.
type NetworkPlan struct {
	clk     *vclock.Virtual
	cfg     NetworkConfig
	streams vclock.Streams
}

// NewNetworkPlan returns a plan applying cfg relative to the current
// virtual instant.
func NewNetworkPlan(clk *vclock.Virtual, cfg NetworkConfig) *NetworkPlan {
	return &NetworkPlan{clk: clk, cfg: cfg}
}

// Config returns the plan's configuration.
func (p *NetworkPlan) Config() NetworkConfig { return p.cfg }

// FlapLink precomputes and posts an alternating down/up schedule for
// one link: exponential holding times around MeanDown and MeanUp
// inside [FlapStart, FlapEnd], with a forced SetDown(false) at FlapEnd
// so chaos always ends with the link up. name keys the link's RNG
// stream, so adding links to a scenario does not perturb the schedules
// of the others.
func (p *NetworkPlan) FlapLink(name string, l *netem.Link) {
	cfg := p.cfg
	if cfg.FlapEnd <= cfg.FlapStart {
		return
	}
	meanUp, meanDown := cfg.MeanUp, cfg.MeanDown
	if meanUp <= 0 {
		meanUp = 500 * time.Millisecond
	}
	if meanDown <= 0 {
		meanDown = 200 * time.Millisecond
	}
	rng := p.streams.Stream(p.cfg.Seed, "flap/"+name)
	at := cfg.FlapStart
	down := false
	for at < cfg.FlapEnd {
		down = !down
		state := down
		p.clk.Post(at, func() { l.SetDown(state) })
		mean := meanUp
		if down {
			mean = meanDown
		}
		at += time.Duration(rng.ExpFloat64() * float64(mean))
	}
	if down {
		p.clk.Post(cfg.FlapEnd, func() { l.SetDown(false) })
	}
}

// CrashRouter posts crash/restart pairs for every configured window.
func (p *NetworkPlan) CrashRouter(r *netem.Router) {
	for _, w := range p.cfg.RouterCrashes {
		if w.End <= w.Start {
			continue
		}
		p.clk.Post(w.Start, r.Crash)
		p.clk.Post(w.End, r.Restart)
	}
}

// ApplyChannel installs the control-channel fault model on one switch,
// seeded per switch name, and schedules its removal at FaultsEnd.
func (p *NetworkPlan) ApplyChannel(sw *openflow.Switch) {
	cfg := p.cfg
	if cfg.PacketInLoss <= 0 && cfg.FlowModLoss <= 0 && cfg.FlowRemovedLoss <= 0 &&
		cfg.PacketOutLoss <= 0 && cfg.ReorderRate <= 0 {
		return
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/chan/%s", cfg.Seed, sw.DeviceName())
	sw.SetChannelFaults(&openflow.ChannelFaults{
		Seed:            int64(h.Sum64() >> 1),
		PacketInLoss:    cfg.PacketInLoss,
		FlowModLoss:     cfg.FlowModLoss,
		FlowRemovedLoss: cfg.FlowRemovedLoss,
		PacketOutLoss:   cfg.PacketOutLoss,
		ReorderRate:     cfg.ReorderRate,
		ExtraDelay:      cfg.CtrlExtraDelay,
	})
	if cfg.FaultsEnd > 0 {
		p.clk.Post(cfg.FaultsEnd, func() { sw.SetChannelFaults(nil) })
	}
}

// RestartSwitch posts a reboot at every configured instant.
func (p *NetworkPlan) RestartSwitch(sw *openflow.Switch) {
	for _, at := range p.cfg.SwitchRestarts {
		p.clk.Post(at, sw.Restart)
	}
}
