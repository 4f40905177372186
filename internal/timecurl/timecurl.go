// Package timecurl reproduces the paper's measurement tool: curl's
// time_total, "everything from when Curl starts establishing a TCP
// connection until it gets a response for the HTTP request". Every
// figure except the pull times reports this client-side view.
package timecurl

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Request describes one HTTP-like exchange.
type Request struct {
	// Target is the (registered) service address the client talks to.
	Target netem.HostPort
	// Method and Path shape the request line; informational.
	Method string
	Path   string
	// PayloadSize is the request body size in bytes (ResNet: 83 KiB).
	PayloadSize int
	// Timeout bounds the whole exchange; zero means 75 s (curl's
	// default connect timeout magnitude).
	Timeout time.Duration
}

// Result is the timing breakdown of one exchange.
type Result struct {
	// Connect is the time until the TCP handshake completed
	// (curl: time_connect).
	Connect time.Duration
	// Total is the time until the full response arrived
	// (curl: time_total).
	Total time.Duration
	// ResponseBytes is the response size.
	ResponseBytes int
	// Response holds the response body.
	Response []byte
}

// requestHeader renders the request line and Host header.
func requestHeader(method, path string, target netem.HostPort) string {
	return method + " " + path + " HTTP/1.1\r\nHost: " + target.String() + "\r\n\r\n"
}

// Do runs one measured request from the client host. It mirrors
// timecurl.sh: start the clock, connect, send, await the response.
func Do(clk *vclock.Virtual, client *netem.Host, req Request) (Result, error) {
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = 75 * time.Second
	}
	method := req.Method
	if method == "" {
		method = "GET"
	}
	path := req.Path
	if path == "" {
		path = "/"
	}

	start := clk.Now()
	conn, err := client.DialTimeout(req.Target, timeout)
	if err != nil {
		return Result{}, fmt.Errorf("timecurl: connect %s: %w", req.Target, err)
	}
	defer conn.Close()
	res := Result{Connect: clk.Since(start)}

	header := requestHeader(method, path, req.Target)
	body := make([]byte, len(header)+req.PayloadSize)
	copy(body, header)
	if err := conn.Send(body); err != nil {
		return Result{}, fmt.Errorf("timecurl: send: %w", err)
	}
	remaining := timeout - clk.Since(start)
	if remaining <= 0 {
		return Result{}, netem.ErrTimeout
	}
	resp, err := conn.RecvTimeout(remaining)
	if err != nil {
		return Result{}, fmt.Errorf("timecurl: response: %w", err)
	}
	res.Total = clk.Since(start)
	res.ResponseBytes = len(resp)
	res.Response = resp
	return res, nil
}
