package main

// ingest.go is the ingest-bgp workload: the high-rate service path. An
// in-process server with a journal (sync policy none) runs the gateway
// chain and its four-invariant battery with the 2048-prefix working set
// preloaded. Two binary connections flap disjoint halves of the working
// set in a closed loop at saturation: frames of 256 ops, a sync barrier
// every 16 frames. The control connection, which owns the invariant
// registrations, sends what-if queries beside them in a closed loop.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltanet/client"
	"deltanet/internal/core"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
	"deltanet/internal/server"
)

const (
	ingestWorkingSet = 2048
	ingestFrameOps   = 256
	ingestSyncEvery  = 16
	ingestConns      = 2
	// Frames per loaded connection in one timed round (about 4 s at the
	// baseline), a whole number of sync barriers. Rounds are sized by
	// frames, not time, so a slower program still gives every round
	// enough samples for its p99.
	ingestRoundFrames = 300 * ingestSyncEvery
	ingestSetups      = 7 // set-ups timed per run; setup_s is their median
	ingestTracedOps   = 1 << 19
)

// ingestRig is one set-up ingest server: its journal directory, the
// control connection, and the loaded binary connections.
type ingestRig struct {
	*serverRig
	dir   string
	jrnl  *journal.Journal
	ctrl  *client.Client
	conns []*client.Client
	bins  []*client.BinaryConn
}

func (g *ingestRig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	if g.ctrl != nil {
		g.ctrl.Close()
	}
	if g.serverRig != nil {
		g.stop()
	}
	if g.jrnl != nil {
		g.jrnl.Close()
	}
	os.RemoveAll(g.dir)
}

// setupIngest boots the server with its journal, creates the topology,
// registers the invariants, preloads the working set, and connects the
// binary clients.
func setupIngest(cfg config, static, flap []client.Update) (*ingestRig, error) {
	dir, err := os.MkdirTemp(cfg.outdir, "ingest-")
	if err != nil {
		return nil, err
	}
	g := &ingestRig{dir: dir}
	fail := func(err error) (*ingestRig, error) {
		g.close()
		return nil, err
	}
	if g.jrnl, err = journal.Open(filepath.Join(dir, "journal"), journal.SyncNone); err != nil {
		return fail(err)
	}
	if g.serverRig, err = startServer(server.WithJournal(g.jrnl)); err != nil {
		return fail(err)
	}
	if g.ctrl, err = client.Dial(g.addr); err != nil {
		return fail(err)
	}
	if err := do(g.ctrl, append(append([]string{}, gatewayTopology...), gatewayInvariants...)); err != nil {
		return fail(err)
	}
	pre, err := client.Dial(g.addr)
	if err != nil {
		return fail(err)
	}
	defer pre.Close()
	bc, err := pre.Binary()
	if err != nil {
		return fail(err)
	}
	for _, set := range [][]client.Update{static, flap} {
		for i := 0; i < len(set); i += ingestFrameOps {
			if err := bc.Send(set[i:min(i+ingestFrameOps, len(set))]); err != nil {
				return fail(err)
			}
		}
	}
	if _, err := bc.Sync(); err != nil {
		return fail(err)
	}
	for range ingestConns {
		c, err := client.Dial(g.addr)
		if err != nil {
			return fail(err)
		}
		g.conns = append(g.conns, c)
		b, err := c.Binary()
		if err != nil {
			return fail(err)
		}
		g.bins = append(g.bins, b)
	}
	return g, nil
}

// ingestFrames splits connection i's flap cycle into frames.
func ingestFrames(flap []client.Update, i int) [][]client.Update {
	lo, hi := i*len(flap)/ingestConns, (i+1)*len(flap)/ingestConns
	cycle := flapCycle(flap[lo:hi])
	var frames [][]client.Update
	for k := 0; k < len(cycle); k += ingestFrameOps {
		frames = append(frames, cycle[k:min(k+ingestFrameOps, len(cycle))])
	}
	return frames
}

// ingestResult is what one timed round measured.
type ingestResult struct {
	sent       []int // ops sent per connection (whole frames)
	elapsed    time.Duration
	cpu        time.Duration
	verdict    *samples
	query      *samples
	queryFails int
	syncFails  int
}

// runIngestPhase drives the loaded connections at saturation for one
// round of ingestRoundFrames frames each, and the control connection's
// closed-loop queries while they run. Each connection starts its flap
// cycle from the top.
func runIngestPhase(g *ingestRig, flap []client.Update, seed int64) *ingestResult {
	res := &ingestResult{sent: make([]int, ingestConns)}
	verdicts := make([]samples, ingestConns)
	links := queryLinks(1024, gatewayLinks, seed)
	query := &samples{name: "query"}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var loaded atomic.Bool
	queried := make(chan struct{})
	cpu0, start := cpuTime(), time.Now()
	for i := range g.bins {
		frames := ingestFrames(flap, i)
		wg.Add(1)
		go func(i int, bc *client.BinaryConn) {
			defer wg.Done()
			pending := make([]time.Time, 0, ingestSyncEvery)
			// The round ends on a barrier: every frame sent is then
			// acknowledged, and every connection has sent whole
			// withdraw/announce pairs.
			for f := range ingestRoundFrames {
				fr := frames[f%len(frames)]
				pending = append(pending, time.Now())
				if err := bc.Send(fr); err != nil {
					mu.Lock()
					res.syncFails += len(fr)
					mu.Unlock()
					return
				}
				res.sent[i] += len(fr)
				if (f+1)%ingestSyncEvery == 0 {
					_, err := bc.Sync()
					now := time.Now()
					if err != nil {
						mu.Lock()
						res.syncFails += ingestSyncEvery * ingestFrameOps
						mu.Unlock()
						return
					}
					for _, t := range pending {
						verdicts[i].add(now.Sub(t))
					}
					pending = pending[:0]
				}
			}
		}(i, g.bins[i])
	}
	go func() {
		defer close(queried)
		for q := 0; !loaded.Load(); q++ {
			t0 := time.Now()
			if _, _, err := g.ctrl.WhatIfLink(links[q%len(links)]); err != nil {
				res.queryFails++
			}
			query.add(time.Since(t0))
		}
	}()
	wg.Wait()
	loaded.Store(true)
	<-queried
	res.elapsed, res.cpu = time.Since(start), cpuTime()-cpu0
	res.verdict = &samples{name: "verdict"}
	for i := range verdicts {
		res.verdict.v = append(res.verdict.v, verdicts[i].v...)
	}
	res.query = query
	return res
}

func (res *ingestResult) total() int {
	n := 0
	for _, s := range res.sent {
		n += s
	}
	return n
}

// ingestReference feeds a fresh engine the same stream sequentially:
// the preload, then round by round each connection's ops in its own
// order (the connections touch disjoint rules, so their interleaving
// cannot change the outcome).
func ingestReference(static, flap []client.Update, sent [][]int) (*core.Network, error) {
	g := netgraph.New()
	for _, name := range []string{"ingress", "sw1", "sw2", "egress"} {
		g.AddNode(name)
	}
	for i := range gatewayLinks {
		g.AddLink(netgraph.NodeID(i), netgraph.NodeID(i+1))
	}
	n := core.NewNetwork(g, core.Options{})
	var d core.Delta
	batch := make([]core.BatchOp, 0, 1024)
	apply := func(u client.Update) error {
		batch = append(batch, batchOp(u))
		if len(batch) == cap(batch) {
			err := n.ApplyBatch(batch, &d, 0)
			batch = batch[:0]
			return err
		}
		return nil
	}
	for _, u := range append(append([]client.Update{}, static...), flap...) {
		if err := apply(u); err != nil {
			return nil, err
		}
	}
	for _, round := range sent {
		for i, cnt := range round {
			lo, hi := i*len(flap)/ingestConns, (i+1)*len(flap)/ingestConns
			cycle := flapCycle(flap[lo:hi])
			for k := 0; k < cnt; k++ {
				if err := apply(cycle[k%len(cycle)]); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(batch) > 0 {
		if err := n.ApplyBatch(batch, &d, 0); err != nil {
			return nil, err
		}
	}
	return n, nil
}

func runIngest(cfg config) (*report, error) {
	gen := time.Now()
	static, flap := flapWorkingSet(ingestWorkingSet, cfg.seed)
	preload := len(static) + len(flap)
	r := &report{genMs: msSince(gen)}

	var setups []float64
	var g *ingestRig
	for k := range ingestSetups {
		t0 := time.Now()
		rig, err := setupIngest(cfg, static, flap)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < ingestSetups-1 {
			rig.close()
		} else {
			g = rig
		}
	}
	defer func() {
		if g != nil {
			g.close()
		}
	}()
	r.addE2E("setup_s", medianOf(setups), "s", len(setups))

	m0, err := g.scrape()
	if err != nil {
		return nil, err
	}
	rs := newRounds()
	var sent [][]int
	var total, queries int
	var elapsed time.Duration
	for timed, rounds := time.Now(), 0; rounds == 0 || time.Since(timed) < cfg.duration; rounds++ {
		res := runIngestPhase(g, flap, cfg.seed)
		n := res.total()
		sent = append(sent, res.sent)
		total += n
		elapsed += res.elapsed
		queries += res.query.len()
		r.attempted += n + res.query.len()
		r.failed += res.syncFails + res.queryFails
		rs.add("updates_per_s", float64(n)/res.elapsed.Seconds(), "1/s", 0)
		if err := rs.addLatency("verdict", res.verdict); err != nil {
			return nil, err
		}
		if err := rs.addLatency("query", res.query); err != nil {
			return nil, err
		}
		rs.add("cpu_us_per_update", res.cpu.Seconds()*1e6/float64(n), "us", 0)
	}
	rs.emit(r)
	var busy uint64
	for _, b := range g.bins {
		busy += b.Busy()
	}
	heapTotal := liveHeapMB()

	// Correctness: every op sent was applied, none was dropped by the
	// coalescer's per-op fallback, and the served data plane matches a
	// sequential replay of the same stream.
	applied, err := g.bins[0].Sync()
	if err != nil {
		return nil, err
	}
	if want := uint64(preload + total); applied != want {
		r.fail("server applied %d ops, sent %d", applied, want)
	}
	m1, err := g.scrape()
	if err != nil {
		return nil, err
	}
	rejected := m1["dn_ingest_rejected_ops_total"] - m0["dn_ingest_rejected_ops_total"]
	if rejected != 0 {
		r.fail("coalescer rejected %.0f ops", rejected)
		r.failed += int(rejected)
	}
	ref, err := ingestReference(static, flap, sent)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	if a, b := g.s.Network().BehaviourDigest(), ref.BehaviourDigest(); a != b {
		r.fail("served data plane digest %x, sequential reference %x", a, b)
	}
	ref = nil
	r.note("ops=%d busy=%d", total, busy)

	if cfg.trace {
		ph := phaseTotals{ops: total, queries: queries, elapsed: elapsed, busy: busy}
		if err := ingestTraced(cfg, static, flap, ph, m0, m1, r); err != nil {
			return nil, err
		}
	}
	g.close()
	g = nil
	r.addE2E("heap_live_mb", heapTotal-liveHeapMB(), "MB", 0)
	return r, nil
}

// phaseTotals sums a timed phase's rounds for the traced run.
type phaseTotals struct {
	ops     int
	queries int
	elapsed time.Duration
	busy    uint64
}

// ingestTraced is the traced run's per-layer split for ingest-bgp. The
// server's own counters give the coalescer's batching, backpressure and
// lock wait for the timed phase just run; the generated stream is then
// replayed in-process through binproto, the ingest ring, ApplyBatch, the
// loop check, the monitor and the journal (see tracedReplay), in batches
// of the size the server's coalescer formed, with what-if queries at the
// timed phase's query-to-update ratio.
func ingestTraced(cfg config, static, flap []client.Update, ph phaseTotals, m0, m1 map[string]float64, r *report) error {
	l := &layerFigures{}
	total := float64(ph.ops)
	batches := m1["dn_ingest_batches_total"] - m0["dn_ingest_batches_total"]
	ops := m1["dn_ingest_ops_total"] - m0["dn_ingest_ops_total"]
	l.ingestBatchOps = perOp(ops, batches)
	l.ingestAdaptiveFrac = perOp(m1["dn_ingest_adaptive_flushes_total"]-m0["dn_ingest_adaptive_flushes_total"], batches)
	l.ingestBusyPerMop = perOp(float64(ph.busy), total/1e6)
	l.ingestRejected = m1["dn_ingest_rejected_ops_total"] - m0["dn_ingest_rejected_ops_total"]
	l.serverParseNs = perOp(stageNs(m1, "parse")-stageNs(m0, "parse"), total)
	l.serverLockNs = perOp(stageNs(m1, "lockwait")-stageNs(m0, "lockwait"), total)

	// The replayed stream: the connections' frames interleaved one by one.
	frames := [][][]client.Update{ingestFrames(flap, 0), ingestFrames(flap, 1)}
	var stream []core.BatchOp
	for f := 0; len(stream) < ingestTracedOps; f++ {
		for _, fr := range frames {
			for _, u := range fr[f%len(fr)] {
				stream = append(stream, batchOp(u))
			}
		}
	}
	batchOps := max(1, min(1024, int(l.ingestBatchOps+0.5)))
	queryEvery := max(1, int(perOp(total, float64(ph.queries))))
	links := queryLinks(1024, gatewayLinks, cfg.seed)
	res, tr, overhead, err := tracedReplay(func(tr *tracer) (*replayResult, time.Duration, error) {
		dir, err := os.MkdirTemp(cfg.outdir, "ingest-pipeline-")
		if err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
		j, err := journal.Open(filepath.Join(dir, "journal"), journal.SyncNone)
		if err != nil {
			return nil, 0, err
		}
		defer j.Close()
		n, err := ingestReference(static, flap, nil) // the preloaded engine
		if err != nil {
			return nil, 0, err
		}
		mon := monitor.New(n, 0)
		for _, line := range gatewayInvariants {
			spec, err := monitor.ParseSpec(strings.TrimPrefix(line, "W "))
			if err != nil {
				return nil, 0, err
			}
			mon.Register(spec)
		}
		res := &replayResult{p: newPipeline(n, mon, j, tr), st0: mon.Stats()}
		splits0 := n.Splits()
		t0 := time.Now()
		if err := res.p.runBinary(stream, ingestFrameOps, batchOps, queryEvery, links); err != nil {
			return nil, 0, err
		}
		wall := time.Since(t0)
		res.st1, res.splits, res.atoms = mon.Stats(), n.Splits()-splits0, n.NumAtoms()
		return res, wall, nil
	})
	if err != nil {
		return err
	}
	selfNs := l.fromReplay(res, tr)
	// How many withdraw/announce pairs cancel inside a batch depends on
	// where the coalescer cut the interleaved frames, which a replay in
	// fixed-size batches cannot reproduce (even-sized batches cancel every
	// pair and leave the monitor nothing to do). The monitor's split
	// therefore comes from the server's own stage histograms and monitor
	// counters for the timed phase.
	selfNs -= l.monPassNs
	l.serverMonitor(m0, m1, total)
	selfNs += l.monPassNs
	// Wall time per update at saturation, minus the layers' summed self
	// times and the server stages the replay cannot reach: wire,
	// syscalls and scheduling. Negative when the connections' decoding
	// overlaps the coalescer's apply on the second core.
	l.serverOverheadNs = ph.elapsed.Seconds()*1e9/total - selfNs/(1+overhead) - l.serverLockNs - l.serverParseNs
	l.traceOverheadFrac = overhead
	l.emit(r)
	r.note("traced replay: %d ops in batches of %d, a what-if query every %d ops", len(stream), batchOps, queryEvery)
	return tr.writeFile(spanPath(cfg, "ingest-bgp"))
}
