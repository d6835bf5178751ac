package main

// replay.go is the replay workload: the paper's Table 3 protocol. One
// goroutine drives an in-process deltanet.Checker (loop checking on, no
// invariants, no server) through the synthetic INET trace and the SDN-IP
// 4Switch trace in a closed loop; each InsertRule/RemoveRule call is
// timed, its Report being the verdict. Every replayQueryEvery updates a
// what-if query runs on the live data plane.

import (
	"fmt"
	"runtime"
	"time"

	"deltanet"
	"deltanet/internal/core"
	"deltanet/internal/netgraph"
	"deltanet/internal/trace"
)

const (
	replayQueryEvery = 500 // updates per what-if query
	// A set-up is sub-millisecond, too short to time alone on a shared
	// machine. A setup_s sample is the mean time of replaySetupBlock
	// back-to-back set-ups; replaySetups samples are taken before every
	// pass, so their median spans the whole run rather than one moment
	// of the host's load.
	replaySetups     = 4
	replaySetupBlock = 40
)

// newChecker returns a Checker over a copy of the trace's topology.
func newChecker(tr *trace.Trace) (*deltanet.Checker, error) {
	c := deltanet.New()
	g := c.Network().Graph()
	for v := netgraph.NodeID(0); int(v) < tr.Graph.NumNodes(); v++ {
		if id := g.AddNode(tr.Graph.NodeName(v)); id != v {
			return nil, fmt.Errorf("%s: node %d copied as %d", tr.Name, v, id)
		}
	}
	for _, l := range tr.Graph.Links() {
		if id := g.AddLink(l.Src, l.Dst); id != l.ID {
			return nil, fmt.Errorf("%s: link %d copied as %d", tr.Name, l.ID, id)
		}
	}
	if d := tr.Graph.DropNode(); d != netgraph.NoNode {
		g.SetDropNode(d)
	}
	return c, nil
}

func newCheckers(traces []*trace.Trace) ([]*deltanet.Checker, error) {
	out := make([]*deltanet.Checker, len(traces))
	for i, tr := range traces {
		c, err := newChecker(tr)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// replayPass replays every trace once on fresh Checkers, timing each
// update into verdict and each what-if query into query. It returns the
// Checkers, the number of loops the verdicts reported, and the process
// CPU time the what-if queries took.
func replayPass(traces []*trace.Trace, links [][]int, verdict, query *samples, r *report) ([]*deltanet.Checker, int, time.Duration, error) {
	cks, err := newCheckers(traces)
	if err != nil {
		return nil, 0, 0, err
	}
	loops, queries := 0, 0
	var queryCPU time.Duration
	for ti, tr := range traces {
		c := cks[ti]
		for i := range tr.Ops {
			op := &tr.Ops[i]
			t0 := time.Now()
			var rep deltanet.Report
			if op.Insert {
				rep, err = c.InsertRule(op.Rule)
			} else {
				rep, err = c.RemoveRule(op.Rule.ID)
			}
			verdict.add(time.Since(t0))
			r.attempted++
			if err != nil {
				r.failed++
				continue
			}
			loops += len(rep.Loops)
			if i%replayQueryEvery == 0 {
				l := links[ti][queries%len(links[ti])]
				queries++
				cpu0 := cpuTime()
				t0 = time.Now()
				sub := c.WhatIfLinkFails(deltanet.LinkID(l))
				query.add(time.Since(t0))
				queryCPU += cpuTime() - cpu0
				r.attempted++
				if sub == nil {
					r.failed++
				}
			}
		}
	}
	return cks, loops, queryCPU, nil
}

// timeSetups appends replaySetups samples to setups, each the mean time
// of replaySetupBlock back-to-back Checker set-ups, timed on a clean heap.
func timeSetups(traces []*trace.Trace, setups []float64) ([]float64, error) {
	runtime.GC()
	for range replaySetups {
		t0 := time.Now()
		for range replaySetupBlock {
			if _, err := newCheckers(traces); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/replaySetupBlock)
	}
	return setups, nil
}

func runReplay(cfg config) (*report, error) {
	gen := time.Now()
	traces, err := replayTraces(cfg.seed)
	if err != nil {
		return nil, err
	}
	links := make([][]int, len(traces))
	ops := 0
	for i, tr := range traces {
		links[i] = queryLinks(tr.Graph.NumLinks(), tr.Graph.NumLinks(), cfg.seed+int64(i))
		ops += len(tr.Ops)
	}
	r := &report{genMs: msSince(gen)}
	r.note("inputs: %s %d ops, %s %d ops", traces[0].Name, len(traces[0].Ops), traces[1].Name, len(traces[1].Ops))

	if cfg.trace {
		setups, err := timeSetups(traces, nil)
		if err != nil {
			return nil, err
		}
		r.addE2E("setup_s", medianOf(setups), "s", len(setups)*replaySetupBlock)
		return r, replayTraced(cfg, traces, links, r)
	}

	// Whole passes only: every run measures the same mix of inserts,
	// removals and trace positions. Each pass is one round.
	rs := newRounds()
	var cks []*deltanet.Checker
	var setups []float64
	passes, loops0 := 0, 0
	start := time.Now()
	for passes == 0 || time.Since(start) < cfg.duration {
		verdict := &samples{name: "verdict", v: make([]int32, 0, ops)}
		query := &samples{name: "query"}
		cks = nil
		if setups, err = timeSetups(traces, setups); err != nil {
			return nil, err
		}
		runtime.GC() // the previous pass's engines are garbage; start each pass on a clean heap
		cpu0, t0 := cpuTime(), time.Now()
		var loops int
		var queryCPU time.Duration
		cks, loops, queryCPU, err = replayPass(traces, links, verdict, query, r)
		if err != nil {
			return nil, err
		}
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		// The update stream alone: wall and CPU time spent in what-if
		// queries are not update time.
		rs.add("updates_per_s", float64(ops)/(wall-query.total()).Seconds(), "1/s", 0)
		if err := rs.addLatency("verdict", verdict); err != nil {
			return nil, err
		}
		if err := rs.addLatency("query", query); err != nil {
			return nil, err
		}
		rs.add("cpu_us_per_update", (cpu-queryCPU).Seconds()*1e6/float64(ops), "us", 0)
		if passes == 0 {
			loops0 = loops
		} else if loops != loops0 {
			r.fail("pass %d reported %d loops, pass 0 reported %d", passes, loops, loops0)
		}
		passes++
	}
	r.addE2E("setup_s", medianOf(setups), "s", len(setups)*replaySetupBlock)
	rs.emit(r)
	total := liveHeapMB()
	for i, c := range cks {
		checkReplayed(traces[i].Name, c.Network(), r)
	}
	cks = nil
	r.addE2E("heap_live_mb", total-liveHeapMB(), "MB", 0)
	r.note("passes=%d loops_per_pass=%d", passes, loops0)
	return r, nil
}

// checkReplayed verifies a replayed engine: its internal invariants
// hold, and it behaves exactly like a fresh engine restored from its
// own snapshot.
func checkReplayed(name string, n *core.Network, r *report) {
	if msg := n.CheckInvariants(); msg != "" {
		r.fail("%s: engine invariants: %s", name, msg)
	}
	fresh := core.NewNetwork(n.Graph(), core.Options{})
	if err := fresh.Restore(n.Snapshot()); err != nil {
		r.fail("%s: restore from snapshot: %v", name, err)
		return
	}
	if a, b := n.BehaviourDigest(), fresh.BehaviourDigest(); a != b {
		r.fail("%s: behaviour digest %x, restored from snapshot %x", name, a, b)
	}
}

// replayTraced is the replay workload's traced run. One Checker pass
// gives the untraced per-update time; the composition the Checker runs
// (InsertRuleInto/RemoveRuleInto, then FindLoopsDelta) is then replayed
// directly on the engine, without and with spans.
func replayTraced(cfg config, traces []*trace.Trace, links [][]int, r *report) error {
	verdict, query := &samples{name: "verdict"}, &samples{name: "query"}
	if _, _, _, err := replayPass(traces, links, verdict, query, r); err != nil {
		return err
	}
	untracedNs := verdict.meanNs()

	ops := make([][]core.BatchOp, len(traces))
	for i, t := range traces {
		ops[i] = make([]core.BatchOp, len(t.Ops))
		for k := range t.Ops {
			ops[i][k] = core.BatchOp(t.Ops[k])
		}
	}
	res, tr, overhead, err := tracedReplay(func(tr *tracer) (*replayResult, time.Duration, error) {
		res := &replayResult{p: &pipeline{tr: tr}}
		var wall time.Duration
		for i, t := range traces {
			c, err := newChecker(t)
			if err != nil {
				return nil, 0, err
			}
			p := newPipeline(c.Network(), nil, nil, tr)
			t0 := time.Now()
			if err := p.runLine(ops[i], true, replayQueryEvery, links[i]); err != nil {
				return nil, 0, fmt.Errorf("%s: %w", t.Name, err)
			}
			wall += time.Since(t0)
			res.p.absorb(p)
			res.splits += p.net.Splits()
			res.atoms += p.net.NumAtoms()
			checkReplayed(t.Name, p.net, r)
		}
		return res, wall, nil
	})
	if err != nil {
		return err
	}
	l := &layerFigures{}
	l.serverOverheadNs = untracedNs - l.fromReplay(res, tr)/(1+overhead)
	l.traceOverheadFrac = overhead
	l.emit(r)
	r.note("untraced checker verdict mean %.0f ns", untracedNs)
	return tr.writeFile(spanPath(cfg, "replay"))
}

func spanPath(cfg config, workload string) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.bin", cfg.outdir, workload, cfg.seed)
}
