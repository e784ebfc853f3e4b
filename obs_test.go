// Tests of the live observability layer at the public API level: the
// metrics snapshot agrees bit-for-bit with the transport meter, the
// HTTP endpoint serves real protocol counters, and the JSON snapshot
// carries per-phase latency histograms for a training step.
package trustddl_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	trustddl "github.com/trustddl/trustddl"
)

// obsInferCluster builds a malicious-mode cluster reporting into a
// fresh registry and runs one secure inference on it.
func obsInferCluster(t *testing.T, name string) (*trustddl.Cluster, *trustddl.Run, *trustddl.ObsRegistry) {
	t.Helper()
	reg := trustddl.NewObsRegistry(name)
	cluster, err := trustddl.New(trustddl.Config{Mode: trustddl.Malicious, Seed: 7, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cluster.Close() })
	w, err := trustddl.InitPaperWeights(7)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		t.Fatal(err)
	}
	img := trustddl.SyntheticDataset(7, 1).Images[0]
	if _, err := run.Infer(img); err != nil {
		t.Fatal(err)
	}
	return cluster, run, reg
}

// TestObsTransportEquivalence asserts the registry's transport view is
// bit-for-bit the transport meter: totals and per-actor counters, for
// both directions, after a full secure inference.
func TestObsTransportEquivalence(t *testing.T) {
	cluster, _, reg := obsInferCluster(t, "equiv")
	stats := cluster.Stats()
	snap := reg.Snapshot()

	if stats.Bytes == 0 || stats.Messages == 0 {
		t.Fatalf("secure inference moved no traffic (stats %+v); the equivalence check is vacuous", stats)
	}
	check := func(name string, want int64) {
		t.Helper()
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, transport meter says %d", name, got, want)
		}
	}
	check("transport.sent.messages", stats.Messages)
	check("transport.sent.bytes", stats.Bytes)
	check("transport.recv.messages", stats.RecvMessages)
	check("transport.recv.bytes", stats.RecvBytes)
	for id := 1; id <= trustddl.NumActors; id++ {
		a := stats.PerActor[id]
		prefix := fmt.Sprintf("transport.actor.%d", id)
		check(prefix+".sent.messages", a.Messages)
		check(prefix+".sent.bytes", a.Bytes)
		check(prefix+".recv.messages", a.RecvMessages)
		check(prefix+".recv.bytes", a.RecvBytes)
	}

	// The mirror must survive a meter reset.
	cluster.ResetStats()
	after := reg.Snapshot()
	for _, name := range []string{"transport.sent.messages", "transport.sent.bytes", "transport.recv.messages", "transport.recv.bytes"} {
		if got := after.Counters[name]; got != 0 {
			t.Errorf("after ResetStats, %s = %d, want 0", name, got)
		}
	}
}

// TestMetricsEndpoint is the metrics smoke test: a loopback metrics
// listener on a live cluster serves a JSON snapshot whose protocol and
// transport counters are non-zero after a secure inference.
func TestMetricsEndpoint(t *testing.T) {
	_, _, reg := obsInferCluster(t, "smoke")
	srv, err := trustddl.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	var snap trustddl.ObsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Name != "smoke" {
		t.Errorf("snapshot name %q, want %q", snap.Name, "smoke")
	}
	for _, name := range []string{"protocol.exchanges", "transport.sent.bytes", "transport.recv.messages"} {
		if snap.Counters[name] == 0 {
			t.Errorf("served counter %s is zero after a secure inference", name)
		}
	}
	if h := snap.Histograms["protocol.phase.commit"]; h.Count == 0 {
		t.Error("served histogram protocol.phase.commit is empty in malicious mode")
	}

	// pprof and expvar ride on the same mux.
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		r, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, r.Status)
		}
	}
}

// TestBenchObsJSON runs a secure inference and a secure training step
// and asserts the registry's JSON snapshot carries per-phase latency
// histograms for the training step and a non-zero traffic volume.
func TestBenchObsJSON(t *testing.T) {
	_, run, reg := obsInferCluster(t, "train")
	if err := run.TrainBatch(trustddl.SyntheticDataset(8, 1).Images, 0.05); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap trustddl.ObsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if c := snap.Counters["core.train.batches"]; c < 1 {
		t.Errorf("core.train.batches = %d, want ≥ 1", c)
	}
	for _, name := range []string{
		"protocol.phase.commit", "protocol.phase.exchange",
		"core.train.batch", "core.infer",
		"nn.l0.forward", "nn.l0.backward", "nn.l0.update",
	} {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("histogram %s is empty after a training step", name)
		}
	}
	if b := snap.Counters["transport.sent.bytes"]; b <= 0 {
		t.Errorf("snapshot sent volume %d bytes, want > 0", b)
	}
}

// benchmarkSecureInfer measures one secure inference per iteration,
// with or without a metrics registry attached — the pair quantifies the
// instrumentation overhead (acceptance: well under a few percent).
func benchmarkSecureInfer(b *testing.B, reg *trustddl.ObsRegistry) {
	cluster, err := trustddl.New(trustddl.Config{Mode: trustddl.Malicious, Seed: 7, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	w, err := trustddl.InitPaperWeights(7)
	if err != nil {
		b.Fatal(err)
	}
	run, err := cluster.NewRun(w)
	if err != nil {
		b.Fatal(err)
	}
	img := trustddl.SyntheticDataset(7, 1).Images[0]
	if _, err := run.Infer(img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run.Infer(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecureInferObsOff(b *testing.B) { benchmarkSecureInfer(b, nil) }
func BenchmarkSecureInferObsOn(b *testing.B) {
	benchmarkSecureInfer(b, trustddl.NewObsRegistry("bench"))
}
