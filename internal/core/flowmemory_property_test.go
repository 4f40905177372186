package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/netem"
	"github.com/c3lab/transparentedge/internal/vclock"
)

// The FlowMemory's oracle: checkFlowMemoryProgram drives a FlowMemory
// and fmModel — a plain map that expires by scanning — with the same
// operations and compares everything the FlowMemory exposes after each
// one. FuzzFlowMemory and TestFlowMemoryCountInvariantProperty are its
// two drivers.
//
// A program is three bytes per operation, (op, client, service):
//
//	op%6       0 remember, 1 forget, 2 forget-service, 3 touch, 4 lookup, 5 sleep
//	op/6%4     the instance remembered (3 counts as 0), or the one
//	           forget-service keeps (3: the empty instance, drop all)
//	client%6   the client; for sleep, one less than the number of steps
//	service%4  the service address
//	service/4%4  the service name, independent of the address, so that
//	           remembering a key again can retag it
//
// One sleep step is 300 ms and the idle timeout 1 s: operations run at
// multiples of 300 ms, entries expire 1 s after one, so no operation
// shares its instant with an expiry and the comparison never depends on
// the order of two events of one instant.
const (
	fmIdle = time.Second
	fmStep = 300 * time.Millisecond
)

// The model and the hooks count time from the start of the program.
type fmModelEntry struct {
	name     string
	inst     cluster.Instance
	lastUsed time.Duration
}

// fmHook is one service-idle hook call: when, and for which service.
type fmHook struct {
	at   time.Duration
	name string
}

type fmModel struct {
	entries map[flowKey]*fmModelEntry
	hooks   []fmHook
}

func (m *fmModel) serviceFlows(name string) int {
	n := 0
	for _, e := range m.entries {
		if e.name == name {
			n++
		}
	}
	return n
}

// expire drops every entry idle at now, earliest deadline first, and
// records a hook — at the entry's deadline — for each drop that left a
// service without entries.
func (m *fmModel) expire(now time.Duration) {
	for {
		var key flowKey
		var first *fmModelEntry
		for k, e := range m.entries {
			if now-e.lastUsed >= fmIdle && (first == nil || e.lastUsed < first.lastUsed) {
				key, first = k, e
			}
		}
		if first == nil {
			return
		}
		delete(m.entries, key)
		if m.serviceFlows(first.name) == 0 {
			m.hooks = append(m.hooks, fmHook{first.lastUsed + fmIdle, first.name})
		}
	}
}

// snapshot is the model's Entries(), or with a client its EntriesFor,
// sorted by sortEntries.
func (m *fmModel) snapshot(client netem.IP) []Entry {
	var out []Entry
	for k, e := range m.entries {
		if client == 0 || k.client == client {
			out = append(out, Entry{Client: k.client, Service: k.service, SvcName: e.name, Instance: e.inst})
		}
	}
	sortEntries(out)
	return out
}

func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client),
			cmp.Compare(a.Service.IP, b.Service.IP), cmp.Compare(a.Service.Port, b.Service.Port))
	})
}

func sortHooks(hs []fmHook) {
	slices.SortFunc(hs, func(a, b fmHook) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.name, b.name))
	})
}

// checkFlowMemoryProgram runs one program and returns the first
// divergence between the FlowMemory and the model.
func checkFlowMemoryProgram(data []byte) (err error) {
	var (
		clients [6]netem.IP
		addrs   [4]netem.HostPort
		names   [4]string
		insts   [4]cluster.Instance // insts[3] stays empty
	)
	for i := range clients {
		clients[i] = netem.ParseIP("192.168.1.1") + netem.IP(i)
	}
	for i := range addrs {
		addrs[i] = netem.HostPort{IP: netem.ParseIP("203.0.113.1"), Port: 80 + uint16(i)}
		names[i] = "svc-" + string(rune('a'+i))
	}
	for i := range insts[:3] {
		insts[i] = cluster.Instance{Addr: netem.HostPort{IP: netem.ParseIP("10.0.0.2"), Port: 20000 + uint16(i)}, Cluster: "edge"}
	}

	clk := vclock.New()
	clk.Run(func() {
		start := clk.Now()
		fm := NewFlowMemory(clk, fmIdle)
		model := &fmModel{entries: make(map[flowKey]*fmModelEntry)}
		// Hooks run on goroutines of the memory's, not on this one.
		var mu sync.Mutex
		var hooks []fmHook
		fm.OnServiceIdle = func(name string) {
			mu.Lock()
			hooks = append(hooks, fmHook{clk.Since(start), name})
			mu.Unlock()
		}

		for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
			op, client, addr := data[0], clients[data[1]%6], addrs[data[2]%4]
			name, inst := names[data[2]/4%4], insts[op/6%4]
			key := flowKey{client, addr}
			now := clk.Since(start)
			switch op % 6 {
			case 0:
				if inst == insts[3] {
					inst = insts[0]
				}
				fm.Remember(client, addr, name, inst)
				model.entries[key] = &fmModelEntry{name: name, inst: inst, lastUsed: now}
			case 1:
				fm.Forget(client, addr)
				delete(model.entries, key)
			case 2:
				fm.ForgetService(name, inst)
				for k, e := range model.entries {
					if e.name == name && e.inst != inst {
						delete(model.entries, k)
					}
				}
			case 3:
				fm.Touch(client, addr)
				if e, ok := model.entries[key]; ok {
					e.lastUsed = now
				}
			case 4:
				got, ok := fm.Lookup(client, addr)
				e, want := model.entries[key]
				if ok != want || (ok && got != e.inst) {
					err = fmt.Errorf("step %d: Lookup(%v, %v) = %v, %v; model has %v", step, client, addr, got, ok, e)
					return
				}
				if want {
					e.lastUsed = now
				}
			case 5:
				clk.Sleep(time.Duration(data[1]%8+1) * fmStep)
				model.expire(clk.Since(start))
			}

			if got, want := fm.Len(), len(model.entries); got != want {
				err = fmt.Errorf("step %d: Len = %d, model has %d", step, got, want)
				return
			}
			for _, name := range names {
				if got, want := fm.ServiceFlows(name), model.serviceFlows(name); got != want {
					err = fmt.Errorf("step %d: ServiceFlows(%s) = %d, model has %d", step, name, got, want)
					return
				}
			}
			all := fm.Entries()
			sortEntries(all)
			if want := model.snapshot(0); !slices.Equal(all, want) {
				err = fmt.Errorf("step %d: Entries = %v, model has %v", step, all, want)
				return
			}
			for _, client := range clients {
				// EntriesFor promises service-address order itself.
				if got, want := fm.EntriesFor(client), model.snapshot(client); !slices.Equal(got, want) {
					err = fmt.Errorf("step %d: EntriesFor(%v) = %v, model has %v", step, client, got, want)
					return
				}
			}
		}

		clk.Sleep(2*fmIdle + fmStep)
		model.expire(clk.Since(start))
		mu.Lock()
		defer mu.Unlock()
		sortHooks(hooks)
		sortHooks(model.hooks)
		if n := fm.Len(); n != 0 || !slices.Equal(hooks, model.hooks) {
			err = fmt.Errorf("after the drain: %d entries left, idle hooks %v, model has %v", n, hooks, model.hooks)
		}
	})
	return err
}

// FuzzFlowMemory is the FlowMemory's differential oracle. The seed
// corpus under testdata/fuzz/FuzzFlowMemory holds the cases an expiry
// structure can get wrong (a lookup after expiry, a touch that splits
// one service's expiry in two, a retag, ForgetService, several services
// idling at one instant), so plain `go test` runs them as unit cases;
// `make fuzz-smoke` mutates from there.
func FuzzFlowMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkFlowMemoryProgram(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFlowMemoryCountInvariantProperty runs the oracle over random
// programs of 60 operations — the corpus cases are short and targeted;
// this is the volume.
func TestFlowMemoryCountInvariantProperty(t *testing.T) {
	f := func(prog []byte) bool {
		err := checkFlowMemoryProgram(prog)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	cfg := &quick.Config{MaxCount: 150, Values: func(args []reflect.Value, r *rand.Rand) {
		prog := make([]byte, 3*60)
		r.Read(prog)
		args[0] = reflect.ValueOf(prog)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestFlowMemoryIdleHookFiresExactlyOnceProperty: regardless of how many
// entries a service accumulates, its idle hook fires exactly once after
// all of them expire together.
func TestFlowMemoryIdleHookFiresExactlyOnceProperty(t *testing.T) {
	f := func(nClients uint8) bool {
		n := int(nClients%10) + 1
		clk := vclock.New()
		fired := 0
		clk.Run(func() {
			fm := NewFlowMemory(clk, time.Second)
			fm.OnServiceIdle = func(string) { fired++ }
			svc := netem.ParseHostPort("203.0.113.1:80")
			inst := cluster.Instance{Addr: netem.ParseHostPort("10.0.0.2:20000")}
			for i := 0; i < n; i++ {
				fm.Remember(netem.ParseIP("192.168.1.1")+netem.IP(i), svc, "svc", inst)
			}
			clk.Sleep(10 * time.Second)
		})
		return fired == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
