package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// modulePrefix starts the function name of every frame inside one of
// the repo's layers: modulePrefix + "<layer>." + symbol.
const modulePrefix = "github.com/c3lab/transparentedge/internal/"

// cpuLayers are the buckets a traced run's CPU samples are charged to:
// the module's packages plus two for stacks with no repo frame.
var cpuLayers = []string{
	"vclock", "netem", "openflow", "core", "cluster", "kube", "docker", "containerd",
	"registry", "faas", "yaml", "metrics", "faultinject", "mobility", "trace", "timecurl",
	"catalog", "testbed", "runtime.sched", "runtime.gc",
}

// gcRoots mark a stack with no repo frame as garbage-collector work;
// every other such stack (scheduler, timers, goroutine exit, idle
// spinning) is charged to runtime.sched.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc"}

// attribution is the self time per layer of one or more CPU profiles.
type attribution struct {
	Total   time.Duration
	ByLayer map[string]time.Duration
}

func newAttribution() *attribution {
	return &attribution{ByLayer: map[string]time.Duration{}}
}

// attributed is the share of samples charged to a named bucket; the
// remainder sits in repo packages cpuLayers does not list.
func (a *attribution) attributed() float64 {
	if a.Total == 0 {
		return 0
	}
	var named time.Duration
	for _, l := range cpuLayers {
		named += a.ByLayer[l]
	}
	return float64(named) / float64(a.Total)
}

// layerOf charges one stack (innermost frame first) to a bucket: the
// innermost frame inside internal/<pkg>, so that mapassign, mallocgc or
// futex time lands on the layer that caused it.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

// addTraces folds the output of `go tool pprof -traces` into a. Each
// sample block is a separator line, then "<value> <innermost frame>",
// then one caller per line.
func (a *attribution) addTraces(r io.Reader) error {
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			a.Total += value
			a.ByLayer[layerOf(stack)] += value
		}
		value, stack = 0, nil
	}
	inSamples := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			// Label lines ("key: value") may precede the value line.
			if strings.HasSuffix(fields[0], ":") || len(fields) < 2 {
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return fmt.Errorf("pprof -traces: sample value %q: %w", fields[0], err)
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	flush()
	return sc.Err()
}
