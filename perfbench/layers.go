package main

// layerFigures is the traced run's per-layer split. A field stays 0 when
// the workload's path does not run that layer (README.md lists which
// layers each workload exercises).
type layerFigures struct {
	coreApplyNs, coreLabelChanges, coreSplits, coreAtoms          float64
	loopNs, whatifNs                                              float64
	monPassNs, monDirtyNs, monEvalNs, monPublishNs                float64
	monEvals, monRangeSkips, monEvalShare                         float64
	serverParseNs, serverLockNs, serverOverheadNs                 float64
	ingestBatchOps, ingestAdaptiveFrac, ingestBusyPerMop          float64
	ingestRejected, ingestRingNs                                  float64
	binEncodeNs, binDecodeNs, binBytesPerOp                       float64
	journalAppendNs, journalBytesPerUpdate                        float64
	traceOverheadFrac                                             float64
	samplesUpdates, samplesQueries, samplesPasses, samplesRecords int
}

// layerNames lists the traced run's metrics in report order.
var layerNames = []string{
	"core.apply_ns_per_update", "core.label_changes_per_update", "core.splits_per_update", "core.atoms",
	"check.loop_ns_per_update", "check.whatif_ns_per_query",
	"monitor.pass_ns_per_update", "monitor.dirty_ns_per_pass", "monitor.eval_ns_per_pass",
	"monitor.publish_ns_per_pass", "monitor.evals_per_update", "monitor.range_skips_per_update",
	"monitor.eval_share",
	"server.parse_ns_per_update", "server.lock_wait_ns_per_update", "server.overhead_ns_per_update",
	"ingest.batch_ops_mean", "ingest.adaptive_cut_frac", "ingest.busy_per_mop", "ingest.rejected",
	"ingest.ring_ns_per_op",
	"binproto.encode_ns_per_op", "binproto.decode_ns_per_op", "binproto.bytes_per_op",
	"journal.append_ns_per_record", "journal.bytes_per_update",
	"bench.gen_ms", "trace.overhead_frac",
}

func (l *layerFigures) emit(r *report) {
	u, q, p, rec := l.samplesUpdates, l.samplesQueries, l.samplesPasses, l.samplesRecords
	r.addLayer("core.apply_ns_per_update", l.coreApplyNs, "ns", u)
	r.addLayer("core.label_changes_per_update", l.coreLabelChanges, "count", 0)
	r.addLayer("core.splits_per_update", l.coreSplits, "count", 0)
	r.addLayer("core.atoms", l.coreAtoms, "count", 0)
	r.addLayer("check.loop_ns_per_update", l.loopNs, "ns", u)
	r.addLayer("check.whatif_ns_per_query", l.whatifNs, "ns", q)
	r.addLayer("monitor.pass_ns_per_update", l.monPassNs, "ns", u)
	r.addLayer("monitor.dirty_ns_per_pass", l.monDirtyNs, "ns", p)
	r.addLayer("monitor.eval_ns_per_pass", l.monEvalNs, "ns", p)
	r.addLayer("monitor.publish_ns_per_pass", l.monPublishNs, "ns", p)
	r.addLayer("monitor.evals_per_update", l.monEvals, "count", 0)
	r.addLayer("monitor.range_skips_per_update", l.monRangeSkips, "count", 0)
	r.addLayer("monitor.eval_share", l.monEvalShare, "ratio", 0)
	r.addLayer("server.parse_ns_per_update", l.serverParseNs, "ns", 0)
	r.addLayer("server.lock_wait_ns_per_update", l.serverLockNs, "ns", 0)
	r.addLayer("server.overhead_ns_per_update", l.serverOverheadNs, "ns", 0)
	r.addLayer("ingest.batch_ops_mean", l.ingestBatchOps, "count", 0)
	r.addLayer("ingest.adaptive_cut_frac", l.ingestAdaptiveFrac, "ratio", 0)
	r.addLayer("ingest.busy_per_mop", l.ingestBusyPerMop, "count", 0)
	r.addLayer("ingest.rejected", l.ingestRejected, "count", 0)
	r.addLayer("ingest.ring_ns_per_op", l.ingestRingNs, "ns", u)
	r.addLayer("binproto.encode_ns_per_op", l.binEncodeNs, "ns", u)
	r.addLayer("binproto.decode_ns_per_op", l.binDecodeNs, "ns", u)
	r.addLayer("binproto.bytes_per_op", l.binBytesPerOp, "bytes", 0)
	r.addLayer("journal.append_ns_per_record", l.journalAppendNs, "ns", rec)
	r.addLayer("journal.bytes_per_update", l.journalBytesPerUpdate, "bytes", 0)
	r.addLayer("bench.gen_ms", r.genMs, "ms", 0)
	r.addLayer("trace.overhead_frac", l.traceOverheadFrac, "ratio", 0)
}

// fromReplay fills the layers a traced in-process replay timed: engine,
// loop check, what-if, monitor, binary framing, ring and journal. It
// returns the summed per-update self time of the update path (what-if
// queries excluded), the base for the server's residual overhead.
func (l *layerFigures) fromReplay(res *replayResult, tr *tracer) float64 {
	p, st0, st1 := res.p, res.st0, res.st1
	self, count := tr.selfTimes()
	total := tr.totalTimes()
	upd := float64(p.updates)
	l.samplesUpdates, l.samplesQueries, l.samplesPasses, l.samplesRecords = p.updates, count[spWhatif], p.passes, p.records
	l.coreApplyNs = perOp(float64(self[spCore]), upd)
	l.coreLabelChanges = perOp(float64(p.labelChanges), upd)
	l.coreSplits = perOp(float64(res.splits), upd)
	l.coreAtoms = float64(res.atoms)
	l.loopNs = perOp(float64(self[spLoop]), upd)
	l.whatifNs = perOp(float64(self[spWhatif]), float64(count[spWhatif]))
	l.monPassNs = perOp(float64(total[spMonitor]), upd)
	l.monDirtyNs = perOp(float64(total[spDirty]), float64(p.passes))
	l.monEvalNs = perOp(float64(total[spEval]), float64(p.passes))
	l.monPublishNs = perOp(float64(total[spPublish]), float64(p.passes))
	evals := float64(st1.Evaluations - st0.Evaluations)
	skips := float64(st1.Skips - st0.Skips)
	l.monEvals = perOp(evals, upd)
	l.monRangeSkips = perOp(float64(st1.RangeSkips-st0.RangeSkips), upd)
	l.monEvalShare = perOp(evals, evals+skips)
	l.ingestRingNs = perOp(float64(self[spRing]), upd)
	l.binEncodeNs = perOp(float64(self[spEncode]), upd)
	l.binDecodeNs = perOp(float64(self[spDecode]), upd)
	l.binBytesPerOp = perOp(float64(p.wireBytes), upd)
	l.journalAppendNs = perOp(float64(self[spJournal]), float64(p.records))
	l.journalBytesPerUpdate = perOp(float64(p.journalBytes), upd)
	var sum int64
	for name, s := range self {
		if name != spWhatif {
			sum += s
		}
	}
	return perOp(float64(sum), upd)
}

// serverMonitor fills the monitor layer from a server's metrics over a
// timed phase of ops updates: the dirty-mark, eval fan-out and publish
// stage histograms (one observation per evaluation pass) and the
// monitor's counters.
func (l *layerFigures) serverMonitor(m0, m1 map[string]float64, ops float64) {
	delta := func(name string) float64 { return m1[name] - m0[name] }
	passes := delta(`dnserve_update_stage_seconds_count{stage="evalfanout"}`)
	dirty, eval, publish := stageNs(m1, "dirtymark")-stageNs(m0, "dirtymark"),
		stageNs(m1, "evalfanout")-stageNs(m0, "evalfanout"), stageNs(m1, "publish")-stageNs(m0, "publish")
	l.samplesPasses = int(passes)
	l.monPassNs = perOp(dirty+eval+publish, ops)
	l.monDirtyNs = perOp(dirty, passes)
	l.monEvalNs = perOp(eval, passes)
	l.monPublishNs = perOp(publish, passes)
	evals, skips := delta("dn_monitor_evaluations_total"), delta("dn_monitor_skips_total")
	l.monEvals = perOp(evals, ops)
	l.monRangeSkips = perOp(delta("dn_monitor_range_skips_total"), ops)
	l.monEvalShare = perOp(evals, evals+skips)
}
