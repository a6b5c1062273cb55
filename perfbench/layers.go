package main

import "fmt"

// layerMetric is one per-layer metric the traced run reports, with the
// direction that counts as better.
type layerMetric struct{ name, unit, better string }

// catalog is every per-layer metric, in report order. A traced run
// prints all of them; one a workload does not exercise reads 0 (for
// example backbone handoffs on attach). Names are <layer>.<metric>, the
// layers named after the internal/ packages they measure.
var catalog = []layerMetric{
	{"bn256.pairing_us", "us", "lower"},
	{"bn256.g1_exp_us", "us", "lower"},
	{"bn256.g2_exp_us", "us", "lower"},
	{"bn256.gt_exp_us", "us", "lower"},

	{"sgs.sign_us", "us", "lower"},
	{"sgs.batch_verify_us_per_sig.b1", "us", "lower"},
	{"sgs.batch_verify_us_per_sig.b2", "us", "lower"},
	{"sgs.url_sweep_us_per_token", "us", "lower"},
	{"sgs.pairings_per_attach", "count", "lower"},
	{"sgs.exps_per_attach", "count", "lower"},
	{"sgs.gt_exps_per_attach", "count", "lower"},
	{"sgs.model_predicted_us", "us", "lower"},
	{"sgs.model_measured_us", "us", "lower"},
	{"sgs.model_residual_frac", "ratio", "lower"},

	{"core.handle_beacon_us", "us", "lower"},
	{"core.access_batch_us_per_req", "us", "lower"},
	{"core.ingest_wait_us", "us", "lower"},
	{"core.handle_confirm_us", "us", "lower"},
	{"core.resume_session_us", "us", "lower"},
	{"core.router_sessions_end", "count", "lower"},
	{"core.session_log_end", "count", "lower"},
	{"core.seal_ns.64", "ns", "lower"},
	{"core.seal_ns.1200", "ns", "lower"},
	{"core.open_ns.64", "ns", "lower"},
	{"core.open_ns.1200", "ns", "lower"},

	{"revocation.issue_ms", "ms", "lower"},
	{"revocation.router_update_ms", "ms", "lower"},
	{"revocation.delta_bytes", "B", "lower"},
	{"revocation.delta_apply_us", "us", "lower"},
	{"revocation.url_size", "count", "lower"},

	{"transport.retransmits_per_kop", "count", "lower"},
	{"transport.duplicates_per_kop", "count", "lower"},
	{"transport.rejects_per_kop", "count", "lower"},
	{"transport.rejects_per_kop.revoked", "count", "lower"},
	{"transport.rejects_per_kop.resume", "count", "lower"},
	{"transport.rejects_per_kop.unknown_session", "count", "lower"},
	{"transport.timeouts", "count", "lower"},
	{"transport.queue_drops", "count", "lower"},
	{"transport.resume_fallbacks", "count", "lower"},
	{"transport.rev_delta_fetches_per_kop", "count", "lower"},
	{"transport.rev_snapshot_fetches_per_kop", "count", "lower"},
	{"transport.ticket_seal_us", "us", "lower"},
	{"transport.ticket_open_us", "us", "lower"},
	{"transport.codec_us.beacon", "us", "lower"},
	{"transport.codec_us.m2", "us", "lower"},
	{"transport.codec_us.m3", "us", "lower"},
	{"transport.codec_us.resume", "us", "lower"},
	{"transport.stage_sum_us.attach", "us", "lower"},
	{"transport.stage_sum_us.resume", "us", "lower"},
	{"transport.wire_residual_us.attach", "us", "lower"},
	{"transport.wire_residual_us.resume", "us", "lower"},
	{"transport.hist_attach_p50_us", "us", "lower"},
	{"transport.hist_resume_p50_us", "us", "lower"},
	{"transport.hist_handoff_p50_us", "us", "lower"},

	{"batchio.server_read_fill", "ratio", "higher"},
	{"batchio.server_write_fill", "ratio", "higher"},
	{"batchio.syscalls_per_kop", "count", "lower"},
	{"batchio.client_flush_us", "us", "lower"},
	{"batchio.gen_late_us_p99", "us", "lower"},
	{"batchio.gen_pool_outstanding", "count", "lower"},

	{"backbone.handoffs_in", "count", "higher"},
	{"backbone.handoffs_out", "count", "higher"},
	{"backbone.handoff_premium_x", "ratio", "lower"},
	{"backbone.gossip_rounds_per_s", "1/s", "lower"},
	{"backbone.frames_relayed", "count", "lower"},
	{"backbone.envelope_drops", "count", "lower"},

	{"puzzle.dos_difficulty", "count", "lower"},

	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles_per_kop", "count", "lower"},
	{"runtime.heap_live_mb_end", "MiB", "lower"},
	{"runtime.goroutines_delta", "count", "lower"},

	{"trace.overhead_frac", "ratio", "lower"},

	{"e2e.handoff_p50_us", "us", "lower"},
	{"e2e.heap_bytes_per_session", "B", "lower"},
	{"e2e.fail_frac", "ratio", "lower"},
	{"e2e.op_p99_us", "us", "lower"},
	{"e2e.op_p99_us_chunked", "us", "lower"},
	{"fail.timeout", "count", "lower"},
	{"fail.reject", "count", "lower"},
	{"fail.replay", "count", "lower"},
	{"fail.decode", "count", "lower"},
	{"fail.lost", "count", "lower"},
	{"fail.other", "count", "lower"},
}

// fillCatalog gives every catalog metric a value (0 where the workload
// does not exercise it) and refuses metrics outside the catalog or with
// a different unit, so the printed set always matches BENCHMARK.json.
func fillCatalog(m metricSet) error {
	known := make(map[string]string, len(catalog))
	for _, c := range catalog {
		known[c.name] = c.unit
		if _, ok := m[c.name]; !ok {
			m.set(c.name, 0, c.unit)
		}
	}
	for name, v := range m {
		unit, ok := known[name]
		if !ok {
			return fmt.Errorf("metric %q is not in the per-layer catalog", name)
		}
		if v.Unit != unit {
			return fmt.Errorf("metric %q has unit %q, catalog says %q", name, v.Unit, unit)
		}
	}
	return nil
}

// transportLayers derives the transport, batchio and puzzle metrics every
// workload shares from the reference window's registry deltas. Rates are
// per thousand attempted operations.
func transportLayers(w *window, m metricSet) {
	ops := w.attempted
	sd := func(n string) float64 { return float64(w.srvAfter[n] - w.srvBefore[n]) }
	cd := func(n string) float64 { return float64(w.cliAfter.Value(n) - w.cliBefore.Value(n)) }
	m.set("transport.retransmits_per_kop", perKop(cd("retransmits"), ops), "count")
	m.set("transport.duplicates_per_kop", perKop(sd("duplicates"), ops), "count")
	m.set("transport.rejects_per_kop", perKop(sd("rejects"), ops), "count")
	m.set("transport.rejects_per_kop.revoked", perKop(sd("rev_rejects"), ops), "count")
	m.set("transport.rejects_per_kop.resume", perKop(sd("resume_rejects"), ops), "count")
	m.set("transport.rejects_per_kop.unknown_session", perKop(sd("unknown_session_rejects"), ops), "count")
	m.set("transport.timeouts", cd("timeouts"), "count")
	m.set("transport.queue_drops", sd("queue_drops"), "count")
	m.set("transport.resume_fallbacks", cd("resume_fallbacks"), "count")
	m.set("transport.rev_delta_fetches_per_kop", perKop(sd("rev_delta_fetches"), ops), "count")
	m.set("transport.rev_snapshot_fetches_per_kop", perKop(sd("rev_snapshot_fetches"), ops), "count")

	rb, wb := sd("read_batches"), sd("write_batches")
	if rb > 0 {
		m.set("batchio.server_read_fill", sd("read_datagrams")/rb, "ratio")
	}
	if wb > 0 {
		m.set("batchio.server_write_fill", sd("write_datagrams")/wb, "ratio")
	}
	// The handshake clients do one syscall per datagram each way; the data
	// generator counts its own batched calls.
	gen, ok := w.extra["gen_syscalls"]
	if !ok {
		gen = cd("frames_out") + cd("frames_in")
	}
	m.set("batchio.syscalls_per_kop", perKop(rb+wb+gen, ops), "count")
	m.set("puzzle.dos_difficulty", float64(w.srvAfter["dos_difficulty"]), "count")
}
