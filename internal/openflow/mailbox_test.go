package openflow

import (
	"time"

	"github.com/c3lab/transparentedge/internal/vclock"
)

// mailboxHandler queues the switch's inline Handler callbacks into
// mailboxes, for tests that play the controller from a goroutine. A
// restart is queued as the instant Restarted was called.
type mailboxHandler struct {
	packetIns *vclock.Mailbox[PacketIn]
	removals  *vclock.Mailbox[FlowRemoved]
	restarts  *vclock.Mailbox[time.Time]
}

func newMailboxHandler(clk *vclock.Virtual) mailboxHandler {
	return mailboxHandler{vclock.NewMailbox[PacketIn](clk), vclock.NewMailbox[FlowRemoved](clk), vclock.NewMailbox[time.Time](clk)}
}

func (h mailboxHandler) PacketIn(_ *Switch, pin PacketIn)       { h.packetIns.Send(pin) }
func (h mailboxHandler) FlowRemoved(_ *Switch, msg FlowRemoved) { h.removals.Send(msg) }
func (h mailboxHandler) Restarted(sw *Switch)                   { h.restarts.Send(sw.clk.Now()) }

// connectMailboxes connects a mailboxHandler to sw.
func connectMailboxes(sw *Switch, clk *vclock.Virtual) (*vclock.Mailbox[PacketIn], *vclock.Mailbox[FlowRemoved]) {
	h := newMailboxHandler(clk)
	sw.Connect(h)
	return h.packetIns, h.removals
}
