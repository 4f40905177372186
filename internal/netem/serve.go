package netem

import "time"

// Handler answers the requests of a port that Listener.Serve drives.
// Each request runs as a chain of stages on the host's clock: the
// handler is called with stage 0 when the request reaches the head of
// its connection, and with the next stage each time a stage returns
// After, up to 256 stages. Stages run inline in the packet and timer
// callbacks that reach them, so a handler must not block.
type Handler func(req []byte, stage int) Step

// Step is what one stage of a Handler decides: wait and run the next
// stage (After), answer (Reply) or reset the connection (Refuse).
type Step struct {
	wait time.Duration
	resp []byte
	kind stepKind
}

type stepKind uint8

const (
	stepReply stepKind = iota
	stepAfter
	stepRefuse
)

// After runs the request's next stage once d of virtual time has
// elapsed; d = 0 runs it at once, with no event.
func After(d time.Duration) Step { return Step{wait: d, kind: stepAfter} }

// Reply sends resp and ends the request.
func Reply(resp []byte) Step { return Step{resp: resp} }

// Refuse ends the request by aborting its connection: the peer sees
// ErrReset.
func Refuse() Step { return Step{kind: stepRefuse} }

// A served connection keeps its requests in inbox, the one in progress
// at the head until its answer is sent, so the connection is busy
// exactly while inbox is non-empty; stage is that request's next stage.
// Both are touched only by clock callbacks, which run one at a time.
//
// Every serving entry point is the last action of the callback that
// reaches it. At one P, a goroutine woken by a callback runs after the
// callback returns and before the next event fires, which is exactly
// where serving inline runs, so the events a request schedules get the
// sequence numbers a goroutine per connection would have given them.

// deliver queues in-order requests on a served connection and, if it
// was idle, serves them. handleData calls it where it would wake a
// receiver on the inbox.
func (c *Conn) deliver(first []byte, more [][]byte) {
	idle := c.inbox.Len() == 0
	c.inbox.Send(first)
	for _, payload := range more {
		c.inbox.Send(payload)
	}
	if idle {
		c.serveHead()
	}
}

// serveStage is the Post2 callback that ends a stage's wait.
func serveStage(a, _ any) { a.(*Conn).serveHead() }

// serveHead runs the request at the head of inbox from its current
// stage until a stage waits, then the requests queued behind it, and
// closes the connection once it is idle after the peer's FIN. A stage
// whose wait ends on a connection that failed meanwhile still runs: the
// handler's draws and checks happen as they always did, and only the
// answer finds the connection gone.
func (c *Conn) serveHead() {
	for {
		req, _ := c.inbox.Peek()
		step := c.serve(req, int(c.stage))
		switch step.kind {
		case stepAfter:
			c.stage++
			if step.wait > 0 {
				c.host.clk.Post2(step.wait, serveStage, c, nil)
				return
			}
			continue
		case stepRefuse:
			c.Abort()
			return
		}
		c.stage = 0
		c.inbox.TryRecv()
		if c.Send(step.resp) != nil {
			return // the connection failed meanwhile
		}
		if c.inbox.Len() == 0 {
			c.mu.Lock()
			finished := c.peerClosed
			c.mu.Unlock()
			if finished {
				c.Close() // the peer's FIN came mid-request
			}
			return
		}
	}
}
