package testbed

import (
	"fmt"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/metrics"
	"github.com/c3lab/transparentedge/internal/timecurl"
	"github.com/c3lab/transparentedge/internal/trace"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// Request sends one measured request from a client to a registered
// service, shaped by the service's catalog entry (method, payload).
func (tb *Testbed) Request(clientIdx int, h *ServiceHandle) (timecurl.Result, error) {
	return timecurl.Do(tb.Clock, tb.Client(clientIdx), timecurl.Request{
		Target:      h.Addr,
		Method:      h.Catalog.HTTPMethod,
		PayloadSize: h.Catalog.RequestPayload,
	})
}

// PrePull runs the Pull phase on the given cluster for a service.
func (tb *Testbed) PrePull(h *ServiceHandle, clusterName string) error {
	for _, cl := range tb.allClusters() {
		if cl.Name() == clusterName {
			return cl.Pull(h.Svc.Annotated.Spec)
		}
	}
	return fmt.Errorf("testbed: unknown cluster %q", clusterName)
}

// PreCreate runs the Create phase on the given cluster for a service.
func (tb *Testbed) PreCreate(h *ServiceHandle, clusterName string) error {
	for _, cl := range tb.allClusters() {
		if cl.Name() == clusterName {
			return cl.Create(h.Svc.Annotated.Spec)
		}
	}
	return fmt.Errorf("testbed: unknown cluster %q", clusterName)
}

func (tb *Testbed) allClusters() []cluster.Cluster {
	var out []cluster.Cluster
	if tb.Docker != nil {
		out = append(out, tb.Docker)
	}
	if tb.Kube != nil {
		out = append(out, tb.Kube)
	}
	if tb.FarEdge != nil {
		out = append(out, tb.FarEdge)
	}
	if tb.Faas != nil {
		out = append(out, tb.Faas)
	}
	if tb.ZoneB != nil {
		out = append(out, tb.ZoneB)
	}
	out = append(out, tb.Cloud)
	return out
}

// RequestFromZoneB sends one measured request from a client behind the
// second gNB.
func (tb *Testbed) RequestFromZoneB(clientIdx int, h *ServiceHandle) (timecurl.Result, error) {
	return timecurl.Do(tb.Clock, tb.ZoneBClient(clientIdx), timecurl.Request{
		Target:      h.Addr,
		Method:      h.Catalog.HTTPMethod,
		PayloadSize: h.Catalog.RequestPayload,
	})
}

// ReplayResult is the outcome of a first-request replay.
type ReplayResult struct {
	// Totals is the client-observed time_total of each service's first
	// request, in service order.
	Totals *metrics.Series
	// Errors counts failed requests.
	Errors int
}

// ReplayFirstRequests fires the first request of every registered
// service (first[i], from trace.FirstRequests, for handle i) at its
// trace first-occurrence time and measures time_total — the measurement
// behind Figs. 11 and 12 ("we scaled up 42 instances for each test, see
// Fig. 10").
func (tb *Testbed) ReplayFirstRequests(first []trace.Request, handles []*ServiceHandle) *ReplayResult {
	res := &ReplayResult{Totals: metrics.NewSeries("time_total")}
	var g vclock.Group
	results := make([]time.Duration, len(handles))
	errs := make([]error, len(handles))
	for i, h := range handles {
		i, h := i, h
		req := first[i%len(first)]
		g.Go(tb.Clock, func() {
			tb.Clock.Sleep(req.At)
			r, err := tb.Request(req.Client, h)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = r.Total
		})
	}
	g.Wait(tb.Clock)
	for i := range handles {
		if errs[i] != nil {
			res.Errors++
			continue
		}
		res.Totals.Add(results[i])
	}
	return res
}

// ReplayTrace replays the full request trace (all 1708 requests) and
// returns per-request totals plus the number of failed requests — under
// fault injection, a non-zero error count means clients saw blackholed
// flows.
func (tb *Testbed) ReplayTrace(tr *trace.Trace, handles []*ServiceHandle) (*metrics.Series, int) {
	totals, errs := tb.replayTraceClassified(tr, handles)
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	return totals, failed
}

// replayTraceClassified replays the trace and keeps every request's
// error, in trace order, for callers that classify failures instead of
// counting them.
func (tb *Testbed) replayTraceClassified(tr *trace.Trace, handles []*ServiceHandle) (*metrics.Series, []error) {
	totals := metrics.NewSeries("time_total")
	var g vclock.Group
	results := make([]time.Duration, len(tr.Requests))
	errs := make([]error, len(tr.Requests))
	for i, req := range tr.Requests {
		i, req := i, req
		g.Go(tb.Clock, func() {
			tb.Clock.Sleep(req.At)
			h := handles[req.Service%len(handles)]
			r, err := tb.Request(req.Client, h)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = r.Total
		})
	}
	g.Wait(tb.Clock)
	for i := range results {
		if errs[i] == nil {
			totals.Add(results[i])
		}
	}
	return totals, errs
}
