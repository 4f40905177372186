package openflow

import "github.com/c3lab/transparentedge/internal/vclock"

// mailboxHandler queues the switch's inline Handler callbacks into
// mailboxes, for tests that play the controller from a goroutine.
type mailboxHandler struct {
	packetIns *vclock.Mailbox[PacketIn]
	removals  *vclock.Mailbox[FlowRemoved]
}

func (h mailboxHandler) PacketIn(_ *Switch, pin PacketIn)       { h.packetIns.Send(pin) }
func (h mailboxHandler) FlowRemoved(_ *Switch, msg FlowRemoved) { h.removals.Send(msg) }

// connectMailboxes connects a mailboxHandler to sw.
func connectMailboxes(sw *Switch, clk *vclock.Virtual) (*vclock.Mailbox[PacketIn], *vclock.Mailbox[FlowRemoved]) {
	h := mailboxHandler{vclock.NewMailbox[PacketIn](clk), vclock.NewMailbox[FlowRemoved](clk)}
	sw.Connect(h)
	return h.packetIns, h.removals
}
