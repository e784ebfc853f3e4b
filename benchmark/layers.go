package main

import (
	"fmt"

	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/transport"
)

// perLayer turns what a traced run metered from outside the program —
// the counters the program already exposes, its obs registry, and the
// benchmark's own spans — into the per-layer metrics of BENCHMARK.json.
// plain is an untraced window of the same workload; the difference
// between the two prices the tracing. The layer probes add the rest.
//
// Registry times are summed over the three parties and divided by the
// secure passes of the window, so "exchange" includes each party's wait
// for its peers.
func perLayer(plain, traced *result) ([]metric, error) {
	r := traced
	if r.passes == 0 || len(r.samples) == 0 || len(plain.samples) == 0 {
		return nil, fmt.Errorf("%s: traced window completed nothing (%d attempted): %v", r.workload.name, r.ops, r.failures)
	}
	images, passes := float64(r.images), float64(r.passes)
	var out []metric
	add := func(name string, value float64, unit string) {
		out = append(out, metric{Name: name, Value: value, Unit: unit})
	}
	histMs := func(name string) float64 { return float64(r.reg.Histograms[name].SumNanos) / 1e6 }

	hit := 0.0
	if asked := r.proc.poolHits + r.proc.poolMiss; asked > 0 {
		hit = float64(r.proc.poolHits) / float64(asked)
	}
	add("tensor.pool_hit_ratio", hit, "ratio")

	var partyBytes int64
	for p := 1; p <= sharing.NumParties; p++ {
		partyBytes += r.wire.PerActor[p].Bytes
	}
	ownerBytes := r.wire.PerActor[transport.ModelOwner].Bytes + r.wire.PerActor[transport.DataOwner].Bytes
	add("transport.msgs_per_img", float64(r.wire.Messages)/images, "count")
	add("transport.party_mb_per_img", mbOf(partyBytes)/images, "MB")
	add("transport.owner_mb_per_img", mbOf(ownerBytes)/images, "MB")

	for _, phase := range []string{"commit", "exchange", "reconstruct", "decide"} {
		add("protocol."+phase+"_ms_per_pass", histMs("protocol.phase."+phase)/passes, "ms")
	}
	add("protocol.exchanges_per_pass", float64(r.reg.Counters["protocol.exchanges"])/passes, "count")
	add("protocol.owner_calls_per_pass", float64(r.owner.Calls)/passes, "count")
	add("protocol.triples_per_pass", float64(r.owner.TriplesDealt)/passes, "count")
	add("protocol.flags_per_pass", float64(r.reg.Counters["protocol.flags"])/passes, "count")

	const paperLayers = 5 // conv, relu, fc1, relu, fc2
	backward, update := 0.0, 0.0
	for l := 0; l < paperLayers; l++ {
		add(fmt.Sprintf("nn.l%d_forward_ms_per_pass", l), histMs(fmt.Sprintf("nn.l%d.forward", l))/passes, "ms")
		backward += histMs(fmt.Sprintf("nn.l%d.backward", l))
		update += histMs(fmt.Sprintf("nn.l%d.update", l))
	}
	add("nn.backward_ms_per_pass", backward/passes, "ms")
	add("nn.update_ms_per_pass", update/passes, "ms")

	add("core.cpu_per_wall", r.proc.cpu.Seconds()/r.proc.wall.Seconds(), "cores")
	add("core.alloc_mb_per_img", mbOf(int64(r.proc.allocBytes))/images, "MB")
	add("core.allocs_per_img", float64(r.proc.allocs)/images, "count")
	add("core.gc_pause_ms_per_s", ms(r.proc.gcPause)/r.proc.wall.Seconds(), "ms/s")
	add("core.peak_rss_mb", r.proc.peakRSSMB, "MB")
	add("core.provision_ms", ms(r.provision), "ms")

	// serve: the figures at the reference rate; every rate's own are in
	// the rate-step table. All zero on the closed loops.
	serveSteps(r)
	var ref rateStep
	rejected, late := 0, 0.0
	for _, st := range r.steps {
		if st.Rate == refRate {
			ref = st
		}
		rejected += st.Rejected
		late = max(late, st.LateMaxMs)
	}
	add("serve.queue_wait_ms_p50", ref.QueueWaitP50, "ms")
	add("serve.queue_wait_ms_p95", ref.QueueWaitP95, "ms")
	add("serve.mean_batch", ref.MeanBatch, "img")
	add("serve.passes_per_s", ref.PassesPerS, "1/s")
	add("serve.pass_ms_p50", ref.PassP50, "ms")
	add("serve.req_ms_p95", ref.P95, "ms")
	add("serve.max_rate_rps", maxRate(r.steps), "req/s")
	add("serve.rejected", float64(rejected), "count")
	add("serve.retries", float64(r.reg.Counters["serve.retries"]), "count")
	add("serve.generator_late_ms_max", late, "ms")

	// suspicion: what the ledger holds against parties that did nothing
	// wrong, and whether the one that did was caught.
	honestEvidence, honestConvictions, byzConvicted := 0, 0, 0
	isByz := func(p int) bool { return r.workload.byz && p == byzParty }
	for _, e := range r.suspicion.Evidence {
		if !isByz(e.Party) {
			honestEvidence += e.Count
		}
	}
	for _, p := range r.suspicion.Convicted {
		if isByz(p) {
			byzConvicted++
		} else {
			honestConvictions++
		}
	}
	add("suspicion.honest_evidence", float64(honestEvidence), "count")
	add("suspicion.honest_convictions", float64(honestConvictions), "count")
	add("suspicion.byz_convicted", float64(byzConvicted), "count")

	add("fixed.saturations", float64(r.reg.Counters["fixed.saturations"]), "count")

	// Tracing overhead: throughput lost on a closed loop. An open loop's
	// throughput is its arrival schedule, so there it is the CPU added
	// per image.
	rate, _ := throughput(r)
	ratePlain, _ := throughput(plain)
	overhead := 100 * (ratePlain - rate) / ratePlain
	if r.workload.kind == kindServe {
		overhead = 100 * (cpuPerImage(r) - cpuPerImage(plain)) / cpuPerImage(plain)
	}
	add("obs.overhead_pct", overhead, "%")
	return out, nil
}

// serveSteps fills each rate step's traced figures from the spans: a
// request's queue wait is its own span minus the span of the pass it
// rode in.
func serveSteps(r *result) {
	passes := make(map[int64]span)
	for _, s := range r.spans {
		if s.Name == spanGatewayPass {
			passes[s.ID] = s
		}
	}
	for i := range r.steps {
		st := &r.steps[i]
		in := func(s span) bool { return !s.Start.Before(st.start) && s.Start.Before(st.end) }
		var waits, passMs []float64
		batch := 0
		for _, s := range r.spans {
			if !in(s) {
				continue
			}
			switch s.Name {
			case spanRequest:
				if p, ok := passes[s.Parent]; ok {
					waits = append(waits, ms(s.End.Sub(s.Start)-p.End.Sub(p.Start)))
				}
			case spanGatewayPass:
				passMs = append(passMs, ms(s.End.Sub(s.Start)))
				batch += s.Batch
			}
		}
		st.QueueWaitP50, st.QueueWaitP95 = quantile(waits, 0.5), quantile(waits, 0.95)
		st.PassP50 = quantile(passMs, 0.5)
		if len(passMs) > 0 {
			st.MeanBatch = float64(batch) / float64(len(passMs))
			st.PassesPerS = float64(len(passMs)) / st.Seconds
		}
	}
}
