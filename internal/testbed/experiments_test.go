package testbed

import (
	"strings"
	"testing"
	"time"

	"github.com/c3lab/transparentedge/internal/cluster"
	"github.com/c3lab/transparentedge/internal/trace"
)

// The experiment tests assert the *shape* of every published result:
// orderings, ratios, and crossovers rather than absolute numbers.

func TestTableIRendering(t *testing.T) {
	out := TableI().String()
	for _, want := range []string{"Asm", "Nginx", "ResNet", "Nginx+Py",
		"6.18 KiB", "135 MiB", "308 MiB", "181 MiB", "POST"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestFig9And10Workload(t *testing.T) {
	res, err := RunWorkload(trace.DefaultBigFlows())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9: 1708 requests to 42 services over five minutes.
	if got := res.Trace.TotalRequests(); got != 1708 {
		t.Errorf("requests = %d, want 1708", got)
	}
	if got := len(res.Trace.Counts); got != 42 {
		t.Errorf("services = %d, want 42", got)
	}
	sum := 0
	for _, n := range res.Trace.RequestsPerSecond() {
		sum += n
	}
	if sum != 1708 {
		t.Errorf("requests/s histogram sums to %d", sum)
	}
	// Fig. 10: 42 deployments with a burst at the start (paper: up to
	// eight per second in the beginning).
	total := 0
	burst := 0
	for _, n := range res.Trace.DeploymentsPerSecond() {
		total += n
		if n > burst {
			burst = n
		}
	}
	if total != 42 {
		t.Errorf("deployments = %d, want 42", total)
	}
	if burst < 2 {
		t.Errorf("max deployments/s = %d, want a visible burst", burst)
	}
}

func TestFig11ScaleUpShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure replication is slow")
	}
	n := 12 // scaled-down replication: shape is invariant in n
	docker := map[string]time.Duration{}
	kube := map[string]time.Duration{}
	for _, key := range []string{"asm", "nginx", "resnet", "nginxpy"} {
		d, err := RunScaleUp(key, cluster.Docker, n, 100)
		if err != nil {
			t.Fatalf("%s docker: %v", key, err)
		}
		if d.Errors > 0 {
			t.Fatalf("%s docker: %d errors", key, d.Errors)
		}
		docker[key] = d.Totals.Median()
		k, err := RunScaleUp(key, cluster.Kubernetes, n, 100)
		if err != nil {
			t.Fatalf("%s k8s: %v", key, err)
		}
		if k.Errors > 0 {
			t.Fatalf("%s k8s: %d errors", key, k.Errors)
		}
		kube[key] = k.Totals.Median()
	}
	// Docker below one second for the small services.
	for _, key := range []string{"asm", "nginx", "nginxpy"} {
		if docker[key] >= time.Second {
			t.Errorf("docker %s scale-up median = %v, want <1s", key, docker[key])
		}
	}
	// Kubernetes around three seconds for the same containers.
	for _, key := range []string{"asm", "nginx"} {
		if kube[key] < 1500*time.Millisecond || kube[key] > 4500*time.Millisecond {
			t.Errorf("k8s %s scale-up median = %v, want ≈3s", key, kube[key])
		}
		if kube[key] < 2*docker[key] {
			t.Errorf("k8s %s (%v) not ≫ docker (%v)", key, kube[key], docker[key])
		}
	}
	// No notable difference between the tiny Assembler server and the
	// far larger Nginx ("interestingly, there is no notable
	// difference").
	ratio := float64(docker["nginx"]) / float64(docker["asm"])
	if ratio < 0.7 || ratio > 1.5 {
		t.Errorf("docker nginx/asm ratio = %.2f, want ≈1 (size-independent start)", ratio)
	}
	// ResNet is the slowest everywhere.
	if docker["resnet"] <= docker["nginx"] || kube["resnet"] <= kube["nginx"] {
		t.Errorf("resnet (%v docker / %v k8s) not slowest (nginx %v / %v)",
			docker["resnet"], kube["resnet"], docker["nginx"], kube["nginx"])
	}
}

func TestFig12CreateOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure replication is slow")
	}
	n := 12
	for _, key := range []string{"nginx", "asm"} {
		up, err := RunScaleUp(key, cluster.Docker, n, 200)
		if err != nil {
			t.Fatal(err)
		}
		both, err := RunCreateScaleUp(key, cluster.Docker, n, 200)
		if err != nil {
			t.Fatal(err)
		}
		delta := both.Totals.Median() - up.Totals.Median()
		// "Creating the containers adds around 100 ms."
		if delta < 30*time.Millisecond || delta > 300*time.Millisecond {
			t.Errorf("%s create overhead = %v, want ≈100ms", key, delta)
		}
		if both.Creates.Len() == 0 {
			t.Errorf("%s: create phase never measured", key)
		}
	}
	// ResNet shows no visible overhead: its jittered startup dwarfs the
	// create cost.
	up, err := RunScaleUp("resnet", cluster.Docker, n, 201)
	if err != nil {
		t.Fatal(err)
	}
	both, err := RunCreateScaleUp("resnet", cluster.Docker, n, 201)
	if err != nil {
		t.Fatal(err)
	}
	delta := both.Totals.Median() - up.Totals.Median()
	if delta > 500*time.Millisecond {
		t.Errorf("resnet create overhead = %v; should disappear in startup noise", delta)
	}
}

func TestFig13PullShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure replication is slow")
	}
	n := 10
	med := map[string]time.Duration{}
	for _, key := range []string{"asm", "nginx", "resnet", "nginxpy"} {
		pub, err := RunPull(key, false, n, 300)
		if err != nil {
			t.Fatal(err)
		}
		priv, err := RunPull(key, true, n, 300)
		if err != nil {
			t.Fatal(err)
		}
		med[key] = pub.Times.Median()
		saved := pub.Times.Median() - priv.Times.Median()
		// "Pull times improve by about 1.5 to 2 seconds" from the
		// private registry.
		if key != "asm" && (saved < 800*time.Millisecond || saved > 4*time.Second) {
			t.Errorf("%s: private registry saves %v, want ≈1.5–2s", key, saved)
		}
		if saved <= 0 {
			t.Errorf("%s: private registry slower than WAN", key)
		}
	}
	// The minuscule Assembler image shines in the Pull phase.
	if med["asm"] >= med["nginx"]/2 {
		t.Errorf("asm pull %v not ≪ nginx pull %v", med["asm"], med["nginx"])
	}
	// Pull time grows with size: nginx < nginxpy < resnet.
	if !(med["nginx"] < med["nginxpy"] && med["nginxpy"] < med["resnet"]) {
		t.Errorf("pull ordering wrong: nginx=%v nginxpy=%v resnet=%v",
			med["nginx"], med["nginxpy"], med["resnet"])
	}
}

func TestFig14WaitShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure replication is slow")
	}
	n := 12
	resnet, err := RunScaleUp("resnet", cluster.Docker, n, 400)
	if err != nil {
		t.Fatal(err)
	}
	nginx, err := RunScaleUp("nginx", cluster.Docker, n, 400)
	if err != nil {
		t.Fatal(err)
	}
	// "The waiting time alone accounts for more than a fourth of the
	// total time" for ResNet.
	if w, tot := resnet.Waits.Median(), resnet.Totals.Median(); w*4 < tot {
		t.Errorf("resnet wait %v not > ¼ of total %v", w, tot)
	}
	if resnet.Waits.Median() <= nginx.Waits.Median() {
		t.Errorf("resnet wait %v not above nginx wait %v", resnet.Waits.Median(), nginx.Waits.Median())
	}
}

func TestFig16WarmShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure replication is slow")
	}
	n := 30
	warm := map[string]map[cluster.Kind]time.Duration{}
	for _, key := range []string{"asm", "nginx", "resnet"} {
		warm[key] = map[cluster.Kind]time.Duration{}
		for _, kind := range []cluster.Kind{cluster.Docker, cluster.Kubernetes} {
			r, err := RunWarm(key, kind, n, 500)
			if err != nil {
				t.Fatalf("%s %s: %v", key, kind, err)
			}
			warm[key][kind] = r.Totals.Median()
		}
	}
	// Short-response services answer in about a millisecond; no notable
	// difference between the clusters.
	for _, key := range []string{"asm", "nginx"} {
		for kind, med := range warm[key] {
			if med > 20*time.Millisecond {
				t.Errorf("%s on %s warm median = %v, want ≈ms", key, kind, med)
			}
		}
		ratio := float64(warm[key][cluster.Docker]) / float64(warm[key][cluster.Kubernetes])
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s docker/k8s warm ratio = %.2f, want ≈1", key, ratio)
		}
	}
	// The heavyweight classification service requires significantly
	// longer.
	for _, kind := range []cluster.Kind{cluster.Docker, cluster.Kubernetes} {
		if warm["resnet"][kind] < 10*warm["nginx"][kind] {
			t.Errorf("resnet warm (%v) not ≫ nginx warm (%v) on %s",
				warm["resnet"][kind], warm["nginx"][kind], kind)
		}
	}
}

func TestAccessOverheadOrdering(t *testing.T) {
	res, err := RunAccessOverhead("asm", 10, 700)
	if err != nil {
		t.Fatal(err)
	}
	direct := res.Direct.Median()
	warm := res.WarmFlow.Median()
	memory := res.MemoryHit.Median()
	cold := res.ColdDispatch.Median()
	// Transparent redirection over installed flows costs essentially
	// nothing on top of a direct path — the 2019 paper's core claim.
	if warm > direct*2 {
		t.Errorf("warm flows %v ≫ direct %v; rewriting is not cheap", warm, direct)
	}
	// A memory hit pays one controller round trip but skips scheduling;
	// a cold dispatch pays the full Fig. 7 pipeline.
	if !(warm < memory && memory < cold) {
		t.Errorf("ordering broken: warm=%v memory=%v cold=%v", warm, memory, cold)
	}
	// Even the cold dispatch is far below any deployment time.
	if cold > 200*time.Millisecond {
		t.Errorf("cold dispatch = %v; should be tens of ms", cold)
	}
}

func TestTraceReplayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace replication is slow")
	}
	cfg := trace.DefaultBigFlows()
	cfg.HotServices = 10
	cfg.TotalRequests = 400
	res, err := RunTraceReplay("nginx", cluster.Docker, cfg, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Len() < 390 {
		t.Errorf("only %d/400 requests succeeded", res.Totals.Len())
	}
	// Ten deployments, one per service; the rest ride installed flows.
	if res.Stats.ScaleUps != 10 {
		t.Errorf("scale ups = %d, want 10", res.Stats.ScaleUps)
	}
	// The long tail (first requests) is deployment-bound; the median
	// request is warm and fast.
	if med := res.Totals.Median(); med > 50*time.Millisecond {
		t.Errorf("median request = %v, want warm-path ms", med)
	}
	if p99 := res.Totals.Percentile(99); p99 < 200*time.Millisecond {
		t.Errorf("p99 = %v; the deployment tail is missing", p99)
	}
}
