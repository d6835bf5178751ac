package main

// verdict.go is the verdict-10k workload: check-before-commit at the
// monitor scale of 10^4 standing invariants. An in-process server
// speaking the line protocol (no journal) holds the chain fabric. Each of
// fabricControllers connections is a verifying controller: it sends a
// detour-toggle I or R line and waits for its verdict before sending the
// next (the server finishes the monitor pass before it writes the
// response), and after every verdictQueryEvery-1 updates it sends a
// what-if query. Each controller's reads wait behind the other's writes.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"deltanet/client"
	"deltanet/internal/core"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

const (
	verdictQueryEvery = 5 // every 5th request of a controller is a what-if query
	// Requests per controller in one timed round (about 2 s at the
	// baseline). Rounds are sized by requests, not time, so a slower
	// program still gives every round enough samples for its p99.
	verdictRoundReqs = 9000
	verdictSetups    = 5 // set-ups timed per run; setup_s is their median
	verdictTracedOps = 10_000
)

// Request kinds of a controller connection.
const (
	kindUpdate = iota
	kindQuery
)

// verdictRig is one set-up verdict server: the control connection owns
// the invariant registrations; the controller connections carry the
// load.
type verdictRig struct {
	*serverRig
	ctrl  *client.Client
	conns []net.Conn
}

func (g *verdictRig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	if g.ctrl != nil {
		g.ctrl.Close()
	}
	if g.serverRig != nil {
		g.stop()
	}
}

func setupVerdict(f *fabric) (*verdictRig, error) {
	g := &verdictRig{}
	fail := func(err error) (*verdictRig, error) {
		g.close()
		return nil, err
	}
	var err error
	if g.serverRig, err = startServer(); err != nil {
		return fail(err)
	}
	if g.ctrl, err = client.Dial(g.addr); err != nil {
		return fail(err)
	}
	if err := do(g.ctrl, f.setupLines()); err != nil {
		return fail(err)
	}
	for range fabricControllers {
		c, err := net.Dial("tcp", g.addr)
		if err != nil {
			return fail(err)
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func runVerdict(cfg config) (*report, error) {
	gen := time.Now()
	f := chainFabric()
	churn := churnStream(2*fabricControllers, cfg.seed) // one insert/remove cycle per controller
	links := queryLinks(len(f.links), len(f.links), cfg.seed)
	r := &report{genMs: msSince(gen)}

	var setups []float64
	var g *verdictRig
	for k := range verdictSetups {
		t0 := time.Now()
		rig, err := setupVerdict(f)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < verdictSetups-1 {
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
	// Each controller's request sequence continues across rounds.
	ctrls := make([]*reqLoop, fabricControllers)
	nexts := make([]func() (string, int), fabricControllers)
	for c := range ctrls {
		ctrls[c] = newReqLoop(g.conns[c], 2)
		i, upd, q := 0, 0, 0
		nexts[c] = func() (string, int) {
			defer func() { i++ }()
			if i%verdictQueryEvery == verdictQueryEvery-1 {
				q++
				return fmt.Sprintf("whatif %d", links[((q-1)*fabricControllers+c)%len(links)]), kindQuery
			}
			upd++
			return churn[((upd-1)*fabricControllers+c)%len(churn)].line(f), kindUpdate
		}
	}
	okPrefix := []string{kindUpdate: "ok atoms=", kindQuery: "ok whatif "}
	rs := newRounds()
	var updateNs float64 // summed update latency of the timed rounds
	timedUpdates := 0
	// Round -1 warms up: it lets the heap and the GC pacer reach their
	// steady state and is not measured.
	for timed, rounds := time.Now(), -1; rounds <= 0 || time.Since(timed) < cfg.duration; rounds++ {
		lats := make([][]*samples, fabricControllers)
		var wg sync.WaitGroup
		cpu0, start := cpuTime(), time.Now()
		for c := range ctrls {
			lats[c] = []*samples{kindUpdate: {}, kindQuery: {}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctrls[c].run(verdictRoundReqs, nexts[c], lats[c], okPrefix)
			}()
		}
		wg.Wait()
		elapsed, cpu := time.Since(start), cpuTime()-cpu0
		if rounds < 0 {
			timed = time.Now()
			continue
		}
		verdict, query := &samples{name: "verdict"}, &samples{name: "query"}
		for c := range lats {
			verdict.v = append(verdict.v, lats[c][kindUpdate].v...)
			query.v = append(query.v, lats[c][kindQuery].v...)
		}
		n := verdict.len()
		updateNs += verdict.meanNs() * float64(n)
		timedUpdates += n
		rs.add("updates_per_s", float64(n)/elapsed.Seconds(), "1/s", 0)
		if err := rs.addLatency("verdict", verdict); err != nil {
			return nil, err
		}
		if err := rs.addLatency("query", query); err != nil {
			return nil, err
		}
		rs.add("cpu_us_per_update", cpu.Seconds()*1e6/float64(n), "us", 0)
	}
	rs.emit(r)
	served, queries := 0, 0
	for _, q := range ctrls {
		served += q.done[kindUpdate]
		queries += q.done[kindQuery]
		r.attempted += q.done[kindUpdate] + q.done[kindQuery] + q.lost
		r.failed += q.nBad + q.lost
	}
	heapTotal := liveHeapMB()

	// Correctness: every request answered ok, and the incremental
	// verdicts match a from-scratch evaluation of every invariant.
	for c, q := range ctrls {
		if q.nBad > 0 || q.lost > 0 {
			r.fail("controller %d: %d refused (%q), %d unanswered", c, q.nBad, q.bad, q.lost)
		}
	}
	if ev := g.s.Monitor().RecheckAll(); len(ev) > 0 {
		r.fail("from-scratch recheck changed %d verdicts (first: %v)", len(ev), ev[0])
	}
	r.note("updates=%d queries=%d", served, queries)

	if cfg.trace {
		m1, err := g.scrape()
		if err != nil {
			return nil, err
		}
		queryEvery := max(1, served/max(1, queries))
		if err := verdictTraced(cfg, f, links, queryEvery, float64(served), updateNs/float64(timedUpdates), m0, m1, r); err != nil {
			return nil, err
		}
	}
	g.close()
	g = nil
	r.addE2E("heap_live_mb", heapTotal-liveHeapMB(), "MB", 0)
	return r, nil
}

// fabricPipeline builds the fabric in-process: engine, rules, and a
// monitor holding every reach invariant.
func fabricPipeline(f *fabric, tr *tracer) (*pipeline, error) {
	g := netgraph.New()
	for i := 0; i < fabricNodes; i++ {
		g.AddNode(fmt.Sprintf("s%d", i))
	}
	for _, l := range f.links {
		g.AddLink(netgraph.NodeID(l[0]), netgraph.NodeID(l[1]))
	}
	n := core.NewNetwork(g, core.Options{})
	var d core.Delta
	for _, r := range f.rules {
		if err := n.InsertRuleInto(r, &d); err != nil {
			return nil, err
		}
	}
	mon := monitor.New(n, 0)
	for _, s := range f.specs {
		mon.Register(monitor.Reachable{From: netgraph.NodeID(s[0]), To: netgraph.NodeID(s[1])})
	}
	return newPipeline(n, mon, nil, tr), nil
}

// verdictTraced is the traced run's per-layer split for verdict-10k. The
// server's stage metrics give line parse and lock wait for the timed
// phase just run; the churn is then replayed in-process through
// InsertRuleInto/RemoveRuleInto, FindLoopsDelta (inserts, as the server
// does) and ApplyWithLoops, with what-if queries at the timed phase's
// query-to-update ratio (see tracedReplay).
func verdictTraced(cfg config, f *fabric, links []int, queryEvery int, served, updateNs float64, m0, m1 map[string]float64, r *report) error {
	l := &layerFigures{}
	l.serverParseNs = perOp(stageNs(m1, "parse")-stageNs(m0, "parse"), served)
	l.serverLockNs = perOp(stageNs(m1, "lockwait")-stageNs(m0, "lockwait"), served)

	churn := churnStream(verdictTracedOps, cfg.seed)
	ops := make([]core.BatchOp, len(churn))
	for i := range ops {
		ops[i] = churn[i].op(f)
	}
	res, tr, overhead, err := tracedReplay(func(tr *tracer) (*replayResult, time.Duration, error) {
		p, err := fabricPipeline(f, tr)
		if err != nil {
			return nil, 0, err
		}
		res := &replayResult{p: p, st0: p.mon.Stats()}
		splits0 := p.net.Splits()
		t0 := time.Now()
		if err := p.runLine(ops, false, queryEvery, links); err != nil {
			return nil, 0, err
		}
		wall := time.Since(t0)
		res.st1, res.splits, res.atoms = p.mon.Stats(), p.net.Splits()-splits0, p.net.NumAtoms()
		return res, wall, nil
	})
	if err != nil {
		return err
	}
	selfNs := l.fromReplay(res, tr)
	// Round-trip time per update, minus the layers' summed self times and
	// the server's parse and lock-wait stages: wire, syscalls and
	// scheduling.
	l.serverOverheadNs = updateNs - selfNs/(1+overhead) - l.serverParseNs - l.serverLockNs
	l.traceOverheadFrac = overhead
	l.emit(r)
	r.note("traced replay: %d updates, %d queries", res.p.updates, res.p.queries)
	return tr.writeFile(spanPath(cfg, "verdict-10k"))
}
