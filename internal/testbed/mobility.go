package testbed

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/catalog"
	"github.com/c3lab/transparentedge/internal/core"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/mobility"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// MobileClient returns mobile client host i.
func (tb *Testbed) MobileClient(i int) *netem.Host { return tb.mobiles[i%len(tb.mobiles)] }

// mobileAccess is the access-link shape of a re-homed mobile client —
// identical to wireAccessClients, so moving is latency-neutral.
var mobileAccess = netem.LinkConfig{
	Latency:   500 * time.Microsecond,
	Bandwidth: netem.GbpsToBytes(1),
}

// RehomeClient performs one full handover of mobile client i: toB moves
// it from the primary gNB to gnb2, !toB moves it home. The three layers
// run in datapath-safe order:
//
//  1. physical — Network.Rehome cuts the old access link and attaches
//     the host to the reserved port on the target switch;
//  2. control — Controller.Handover re-steers the client's redirect
//     flows make-before-break and re-tags its tracked location;
//  3. routing — the target switch learns the direct route, the old
//     switch re-points the client at the trunk (overwriting its stale
//     direct route), so traffic converges on the new attachment point.
//
// Routing deliberately comes LAST: make-before-break must cover routes
// too. If the new switch routed packets straight to the client before
// the make step installed its reverse rewrite rules, an in-flight reply
// could reach the client bearing the instance's raw address — and the
// client's transport would RST the very session the handover is
// preserving. With the old routes in place, such a reply either gets
// rewritten by a switch that still holds the rules or dies on the
// client's cut access link, where retransmission recovers it. The same
// holds outbound: packets entering the new switch before its rules
// exist match the service intercept rule and punt to the controller,
// which re-installs the memorized mapping. Nothing in the window is
// ever delivered unrewritten; everything lost is retransmitted.
func (tb *Testbed) RehomeClient(i int, toB bool) core.HandoverReport {
	h := tb.mobiles[i]
	if toB {
		tb.Net.Rehome(h, tb.SwitchB.Port(tb.mobilePortB[i]), mobileAccess)
		rep := tb.Controller.Handover(h.IP(), tb.SwitchB, tb.mobilePortB[i])
		tb.SwitchB.AddRoute(h.IP(), tb.mobilePortB[i])
		tb.Switch.AddRoute(h.IP(), tb.trunkA)
		return rep
	}
	tb.Net.Rehome(h, tb.Switch.Port(tb.mobilePortA[i]), mobileAccess)
	rep := tb.Controller.Handover(h.IP(), tb.Switch, tb.mobilePortA[i])
	tb.Switch.AddRoute(h.IP(), tb.mobilePortA[i])
	tb.SwitchB.AddRoute(h.IP(), tb.trunkB)
	return rep
}

// MobilityConfig parameterizes RunMobility.
type MobilityConfig struct {
	// Clients is the number of mobile clients with live sessions
	// (default 4).
	Clients int
	// Handovers is the number of random-walk handover events
	// (default 16).
	Handovers int
	// Interval is the mean spacing between handovers (default 2 s).
	Interval time.Duration
	// Migrate enables service migration on handover.
	Migrate bool
	// Seed drives the walk and all emulation jitter.
	Seed int64
}

func (c MobilityConfig) withDefaults() MobilityConfig {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Handovers <= 0 {
		c.Handovers = 16
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MobilityResult carries the deterministic outcome of one mobility run.
type MobilityResult struct {
	Config MobilityConfig
	// Sessions and Rounds count the persistent client sessions and their
	// completed request/response rounds (every round is verified against
	// the service's fixed body).
	Sessions int
	Rounds   int
	// VerifiedBytes totals the verified response bytes; Checksum is the
	// FNV-1a fingerprint folded over every session's response stream in
	// client order.
	VerifiedBytes int64
	Checksum      uint64
	// HandoverLat is the control-plane handover latency histogram.
	HandoverLat *metrics.Hist
	// AuditA and AuditB are the post-run flow-table audit deltas
	// (desired vs installed) on the two gNBs; both must be zero.
	AuditA, AuditB int
	Stats          core.Stats
}

// fnv1aFold is FNV-1a over b starting from sum h.
func fnv1aFold(h uint64, b []byte) uint64 {
	const prime = 1099511628211
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

const fnv1aOffset = 14695981039346656037

// RunMobility is the client-mobility experiment: persistent sessions on
// mobile clients keep exchanging requests with an edge service while a
// seeded random walk hops the clients between the two gNBs. Every
// response is verified against the service's fixed body, so a single
// lost, duplicated, or corrupted exchange fails the run — the sessions
// themselves are the probe that handovers preserve TCP continuity.
//
// The run uses one virtual clock (handover order is global state, so
// there is nothing to shard) and every reported number is virtual-time
// deterministic: a given config produces byte-identical results
// regardless of host, scheduler kind, or the -parallel worker count.
func RunMobility(cfg MobilityConfig) (*MobilityResult, error) {
	cfg = cfg.withDefaults()
	res := &MobilityResult{Config: cfg, Checksum: fnv1aOffset}

	svc, err := catalog.ByKey("asm")
	if err != nil {
		return nil, err
	}
	// The asm catalog handler serves this fixed 64-byte document; every
	// session round must receive exactly it.
	expected := make([]byte, 64)
	copy(expected, "asmttpd ok\n")

	walk := mobility.RandomWalk(mobility.WalkConfig{
		Clients:   cfg.Clients,
		Zones:     2,
		Handovers: cfg.Handovers,
		Start:     time.Second,
		Interval:  cfg.Interval,
		Seed:      cfg.Seed + 1000,
	})
	// Sessions outlive the walk by a grace period: the rounds after the
	// last handover prove the final attachment points work too.
	const roundEvery = 250 * time.Millisecond
	rounds := int((walk.Span()+2*time.Second)/roundEvery) + 1

	clk := vclock.New()
	var runErr error
	clk.Run(func() {
		tb, err := New(clk, Options{
			TwoZones:          true,
			MobileClients:     cfg.Clients,
			MigrateOnHandover: cfg.Migrate,
			SwitchFlowIdle:    time.Hour, // no expiry churn mid-run
			MemoryIdle:        time.Hour,
			CandidateTTL:      -1, // per-zone decisions, never a stale snapshot
			Seed:              cfg.Seed,
		})
		if err != nil {
			runErr = err
			return
		}
		h, err := tb.RegisterCatalogService(svc, trace.ServiceAddr(0))
		if err != nil {
			runErr = err
			return
		}
		if err := tb.PrePull(h, "edge-docker"); err != nil {
			runErr = err
			return
		}
		if _, err := tb.Controller.PreDeploy(h.Addr, "edge-docker"); err != nil {
			runErr = err
			return
		}

		// One persistent session per mobile client. Each goroutine owns
		// its slot in the result arrays; the joins below are the only
		// readers.
		req := []byte(fmt.Sprintf("GET / HTTP/1.1\r\nHost: %s\r\n\r\n", h.Addr))
		done := make([]vclock.Gate, cfg.Clients)
		sums := make([]uint64, cfg.Clients)
		bytesOK := make([]int64, cfg.Clients)
		roundsOK := make([]int, cfg.Clients)
		errs := make([]error, cfg.Clients)
		for i := 0; i < cfg.Clients; i++ {
			i := i
			clk.Go(func() {
				defer done[i].Open()
				conn, err := tb.MobileClient(i).DialTimeout(h.Addr, 30*time.Second)
				if err != nil {
					errs[i] = fmt.Errorf("session %d: dial: %w", i, err)
					return
				}
				defer conn.Close()
				sum := uint64(fnv1aOffset)
				for r := 0; r < rounds; r++ {
					if err := conn.Send(req); err != nil {
						errs[i] = fmt.Errorf("session %d round %d: send: %w", i, r, err)
						return
					}
					resp, err := conn.RecvTimeout(30 * time.Second)
					if err != nil {
						errs[i] = fmt.Errorf("session %d round %d: recv: %w", i, r, err)
						return
					}
					if string(resp) != string(expected) {
						errs[i] = fmt.Errorf("session %d round %d: response %q, want the fixed asm body", i, resp, resp)
						return
					}
					sum = fnv1aFold(sum, resp)
					bytesOK[i] += int64(len(resp))
					roundsOK[i]++
					clk.Sleep(roundEvery)
				}
				sums[i] = sum
			})
		}

		// The walk drives handovers strictly in order while the sessions
		// talk through them.
		walk.Run(clk, func(e mobility.Event) {
			tb.RehomeClient(e.Client, e.To == 1)
		})

		for i := range done {
			done[i].Wait(clk)
		}
		for i := 0; i < cfg.Clients; i++ {
			if errs[i] != nil {
				runErr = errs[i]
				return
			}
			res.Rounds += roundsOK[i]
			res.VerifiedBytes += bytesOK[i]
			var enc [8]byte
			for b := 0; b < 8; b++ {
				enc[b] = byte(sums[i] >> (8 * b))
			}
			res.Checksum = fnv1aFold(res.Checksum, enc[:])
		}
		res.Sessions = cfg.Clients

		// Post-run convergence: one explicit audit per gNB against the
		// controller's desired state. Handovers must leave no orphaned
		// and no missing flows anywhere.
		tb.Controller.ResyncNow()
		res.AuditA = tb.Controller.AuditDiff(tb.Switch)
		res.AuditB = tb.Controller.AuditDiff(tb.SwitchB)
		res.HandoverLat = tb.Controller.HandoverLatency()
		res.Stats = tb.Controller.Stats()
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}
