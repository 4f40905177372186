package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/openflow"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// The audit skip's oracle: checkAuditSkipProgram drives a controller
// with two switches (newHandoverRig, its loops off, so every audit is a
// call the program makes) through audits and every change that can set
// a switch's table and the desired state apart. After each audit that
// skipped its diff, AuditDiff — which always diffs — must find nothing.
//
// A program is two bytes per operation, (op, arg):
//
//	op%11  0 resync: audit each switch in turn, as ResyncNow does
//	       1 remember a mapping and install its flows where its client is
//	       2 remember a mapping whose flow-mods are lost
//	       3 forget a mapping
//	       4 sleep arg%8+1 steps: flows idle out, mappings expire
//	       5 install a stray redirect pair no mapping justifies
//	       6 strict-delete a mapping's forward flow
//	       7 restart a switch; arg%2 also resyncs it from scratch
//	       8 hand the client over to a switch
//	       9 move the client behind a switch without a handover, as a
//	         packet-in at that switch does
//	       10 register another service (at most three); arg%2 loses
//	          its punt flow-mods
//
// arg%4 is the client (a stray pair's: one of four others), arg/4%4
// the service, of those registered, arg/16%2 the instance and arg/32%2
// the switch. A client the program has not placed is behind the first
// switch.
//
// Every operation starts at a multiple of auditStep and is done well
// within 100 ms. Flows idle out auditFlowIdle after they are installed,
// mappings auditMemoryIdle after their last use (a flow's removal uses
// it), so no eviction or expiry falls between an audit and the check
// after it.
const (
	auditStep       = 300 * time.Millisecond
	auditFlowIdle   = time.Second
	auditMemoryIdle = 2500 * time.Millisecond
)

func checkAuditSkipProgram(t *testing.T, data []byte) (skips int, err error) {
	clk := vclock.New()
	clk.Run(func() {
		near := &stubCluster{name: "near", loc: cluster.Location{Latency: time.Millisecond}, pulled: true, created: true}
		rig := newHandoverRig(t, clk, false, func(cfg *Config) {
			cfg.SwitchFlowIdle = auditFlowIdle
			cfg.MemoryIdle = auditMemoryIdle
		}, near)
		c := rig.ctrl
		switches := []*openflow.Switch{rig.gnb1, rig.gnb2}
		svcs := []*Service{rig.svc}
		insts := []cluster.Instance{
			{Addr: netem.ParseHostPort("10.0.0.2:20000"), Cluster: "near"},
			{Addr: netem.ParseHostPort("10.0.0.2:20001"), Cluster: "near"},
		}
		lossy := &openflow.ChannelFaults{FlowModLoss: 1}
		start := clk.Now()
		for step := 0; len(data) >= 2 && err == nil; step, data = step+1, data[2:] {
			clk.Sleep(auditStep - clk.Since(start)%auditStep)
			op, arg := data[0]%11, data[1]
			client := auditBase + netem.IP(arg%4)
			svc := svcs[int(arg/4%4)%len(svcs)]
			inst := insts[arg/16%2]
			sw := switches[arg/32%2]
			home := func() *openflow.Switch {
				loc, ok := c.clients.location(client)
				if !ok {
					c.clients.track(client, ClientLocation{Switch: rig.gnb1.DeviceName(), InPort: 3, LastSeen: clk.Now()})
					return rig.gnb1
				}
				for _, s := range switches {
					if s.DeviceName() == loc.Switch {
						return s
					}
				}
				panic("client behind an unknown switch " + loc.Switch)
			}
			switch op {
			case 0:
				for _, s := range switches {
					if !c.auditSwitch(s) {
						continue
					}
					skips++
					if d := c.AuditDiff(s); d != 0 {
						err = fmt.Errorf("step %d: the audit of %s skipped its diff, but %d flows differ", step, s.DeviceName(), d)
						return
					}
				}
			case 1, 2:
				at := home()
				c.fm.Remember(client, svc.Addr, svc.Name, inst)
				if op == 1 {
					for _, spec := range c.redirectSpecs(client, svc, inst) {
						at.InstallFlow(spec)
					}
				}
			case 3:
				c.fm.Forget(client, svc.Addr)
			case 4:
				clk.Sleep(time.Duration(arg%8) * auditStep)
			case 5:
				for _, spec := range c.redirectSpecs(auditBase+64+netem.IP(arg%4), svc, inst) {
					sw.InstallFlow(spec)
				}
			case 6:
				sw.DeleteExact(openflow.Match{SrcIP: client, DstIP: svc.Addr.IP, DstPort: svc.Addr.Port}, redirectPriority)
			case 7:
				sw.Restart()
				if arg%2 == 1 {
					c.resyncFromScratch(sw)
				}
			case 8:
				home()
				c.Handover(client, sw, 3)
			case 9:
				c.clients.track(client, ClientLocation{Switch: sw.DeviceName(), InPort: 3, LastSeen: clk.Now()})
			case 10:
				if len(svcs) == 4 {
					break
				}
				if arg%2 == 1 {
					for _, s := range switches {
						s.SetChannelFaults(lossy)
					}
				}
				addr := netem.HostPort{IP: rig.svc.Addr.IP + netem.IP(len(svcs)), Port: rig.svc.Addr.Port}
				next, regErr := c.RegisterService(addr, leanNginx)
				for _, s := range switches {
					s.SetChannelFaults(nil)
				}
				if regErr != nil {
					err = fmt.Errorf("step %d: %v", step, regErr)
					return
				}
				svcs = append(svcs, next)
			}
		}
	})
	return skips, err
}

// FuzzAuditSkip is the audit skip's oracle (see checkAuditSkipProgram).
// The seed corpus under testdata/fuzz/FuzzAuditSkip holds, for each way
// the table and the desired state can come apart, a program that makes
// that change between two audits: plain `go test` runs them as unit
// cases, `make fuzz-smoke` mutates from there.
func FuzzAuditSkip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		skips, err := checkAuditSkipProgram(t, data)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d audits skipped their diff", skips)
	})
}
