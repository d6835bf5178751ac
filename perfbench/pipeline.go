package main

// pipeline.go replays a workload's generated stream in-process through
// each layer's public entry point, in the order the server calls them,
// so the traced run can time every layer from outside the program. With
// a nil tracer the same code runs untimed: comparing the two passes
// gives the tracing overhead.

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"deltanet/internal/binproto"
	"deltanet/internal/check"
	"deltanet/internal/core"
	"deltanet/internal/ingest"
	"deltanet/internal/journal"
	"deltanet/internal/monitor"
	"deltanet/internal/netgraph"
)

// pipeline is one in-process replay target: an engine, optionally a
// monitor and a journal, and the per-layer counts the traced run reports.
type pipeline struct {
	net  *core.Network
	mon  *monitor.Monitor // nil: no monitor on this path
	jrnl *journal.Journal // nil: no journal on this path
	tr   *tracer
	d    core.Delta

	last     monitor.ApplyTrace // the monitor's most recent pass
	haveLast bool

	updates      int   // ops applied
	queries      int   // what-if queries run
	labelChanges int   // delta label changes, summed over applies
	batches      int   // ApplyBatch calls (binary path)
	passes       int   // traced monitor passes
	wireBytes    int   // encoded frame bytes (binary path)
	records      int   // journal records appended
	journalBytes int64 // journal bytes appended
}

func newPipeline(net *core.Network, mon *monitor.Monitor, jrnl *journal.Journal, tr *tracer) *pipeline {
	p := &pipeline{net: net, mon: mon, jrnl: jrnl, tr: tr}
	if mon != nil {
		// The server always runs with a trace sink installed, so both the
		// traced and the untraced pass keep one.
		mon.SetTraceSink(func(at monitor.ApplyTrace) { p.last, p.haveLast = at, true })
	}
	return p
}

// absorb adds o's counters to p's (one tracer across several engines).
func (p *pipeline) absorb(o *pipeline) {
	p.updates += o.updates
	p.queries += o.queries
	p.labelChanges += o.labelChanges
	p.batches += o.batches
	p.passes += o.passes
	p.wireBytes += o.wireBytes
	p.records += o.records
	p.journalBytes += o.journalBytes
}

// monitorPass runs the monitor over the current delta as one span, with
// the sink's dirty/eval/publish split recorded as its children.
func (p *pipeline) monitorPass(id int, loops []check.Loop, loopsKnown bool) {
	if p.mon == nil {
		return
	}
	p.haveLast = false
	s := p.tr.begin(spMonitor, id, -1)
	p.mon.ApplyWithLoops(&p.d, loops, loopsKnown)
	p.tr.end(s)
	if p.haveLast {
		p.passes++
		at := p.last
		p.tr.child(spDirty, s, 0, at.DirtyNs)
		p.tr.child(spEval, s, at.DirtyNs, at.EvalNs)
		p.tr.child(spPublish, s, at.DirtyNs+at.EvalNs, at.PublishNs)
	}
}

// appendJournal renders a coalesced batch as one journal record in the
// wire line grammar ("B <n>" then one I/R line per op), as the server's
// coalescer does, and appends it.
func (p *pipeline) appendJournal(id int, ops []core.BatchOp) error {
	if p.jrnl == nil {
		return nil
	}
	s := p.tr.begin(spJournal, id, -1)
	var b strings.Builder
	fmt.Fprintf(&b, "B %d", len(ops))
	for i := range ops {
		b.WriteByte('\n')
		op := &ops[i]
		if op.Insert {
			fmt.Fprintf(&b, "I %d %d %d %d %d %d", op.Rule.ID, op.Rule.Source,
				op.Rule.Link, op.Rule.Match.Lo, op.Rule.Match.Hi, op.Rule.Priority)
		} else {
			fmt.Fprintf(&b, "R %d", op.Rule.ID)
		}
	}
	before := p.jrnl.End()
	end, err := p.jrnl.Append(p.mon.UpdateSeq(), b.String())
	p.tr.end(s)
	if err != nil {
		return err
	}
	p.records++
	p.journalBytes += int64(end - before)
	return nil
}

// runBinary is the binary ingest path: frames of frameOps ops are
// encoded, decoded and pushed through the ingest ring; runs of batchOps
// ops are popped and applied as one ApplyBatch, loop check, monitor pass
// and journal record.
func (p *pipeline) runBinary(ops []core.BatchOp, frameOps, batchOps, queryEvery int, queries []int) error {
	ring := ingest.New(2 * batchOps)
	defer ring.Close()
	var buf []byte
	src := bytes.NewReader(nil)
	rd := binproto.NewReader(src)
	batch := make([]core.BatchOp, 0, batchOps)
	queued := 0
	for f := 0; f*frameOps < len(ops); f++ {
		frame := ops[f*frameOps : min((f+1)*frameOps, len(ops))]
		s := p.tr.begin(spEncode, f, -1)
		buf = binproto.AppendOps(buf[:0], frame)
		p.tr.end(s)
		p.wireBytes += len(buf)
		src.Reset(buf)
		s = p.tr.begin(spDecode, f, -1)
		fr, err := rd.Read()
		p.tr.end(s)
		if err != nil {
			return fmt.Errorf("decode frame %d: %w", f, err)
		}
		if len(fr.Ops) != len(frame) {
			return fmt.Errorf("frame %d: decoded %d ops, encoded %d", f, len(fr.Ops), len(frame))
		}
		s = p.tr.begin(spRing, f, -1)
		for _, op := range fr.Ops {
			ring.Push(ingest.Entry{Op: op})
		}
		p.tr.end(s)
		queued += len(fr.Ops)
		last := (f+1)*frameOps >= len(ops)
		for queued >= batchOps || (last && queued > 0) {
			n := min(batchOps, queued)
			s = p.tr.begin(spRing, p.batches, -1)
			batch = batch[:0]
			for range n {
				e, _ := ring.Pop()
				batch = append(batch, e.Op)
			}
			p.tr.end(s)
			queued -= n
			if err := p.applyBatch(batch); err != nil {
				return err
			}
			for queryEvery > 0 && p.updates >= (p.queries+1)*queryEvery {
				p.whatif(queries)
			}
		}
	}
	return nil
}

func (p *pipeline) applyBatch(batch []core.BatchOp) error {
	id := p.batches
	p.batches++
	s := p.tr.begin(spCore, id, -1)
	err := p.net.ApplyBatch(batch, &p.d, 0)
	p.tr.end(s)
	if err != nil {
		return fmt.Errorf("batch %d: %w", id, err)
	}
	s = p.tr.begin(spLoop, id, -1)
	loops := check.FindLoopsDeltaAuto(p.net, &p.d, 0)
	p.tr.end(s)
	p.monitorPass(id, loops, true)
	p.updates += len(batch)
	p.labelChanges += len(p.d.Added) + len(p.d.Removed)
	return p.appendJournal(id, batch)
}

// runLine is the per-update path (no journal): each op is applied on
// its own, loop checked (inserts only, unless loopOnRemove), and handed
// to the monitor; every queryEvery updates one what-if query runs on the next
// link of queries.
func (p *pipeline) runLine(ops []core.BatchOp, loopOnRemove bool, queryEvery int, queries []int) error {
	for k := range ops {
		op := &ops[k]
		s := p.tr.begin(spCore, k, -1)
		var err error
		if op.Insert {
			err = p.net.InsertRuleInto(op.Rule, &p.d)
		} else {
			err = p.net.RemoveRuleInto(op.Rule.ID, &p.d)
		}
		p.tr.end(s)
		if err != nil {
			return fmt.Errorf("op %d: %w", k, err)
		}
		var loops []check.Loop
		known := op.Insert || loopOnRemove
		if known {
			s = p.tr.begin(spLoop, k, -1)
			loops = check.FindLoopsDelta(p.net, &p.d)
			p.tr.end(s)
		}
		p.monitorPass(k, loops, known)
		p.updates++
		p.labelChanges += len(p.d.Added) + len(p.d.Removed)
		if queryEvery > 0 && k%queryEvery == 0 {
			p.whatif(queries)
		}
	}
	return nil
}

// whatif runs one what-if query on the next link of queries.
func (p *pipeline) whatif(queries []int) {
	l := netgraph.LinkID(queries[p.queries%len(queries)])
	s := p.tr.begin(spWhatif, p.queries, -1)
	check.AffectedByLinkFailure(p.net, l)
	p.tr.end(s)
	p.queries++
}

// replayResult is one in-process replay: its counters, the engine's atom
// splits during it and final atom count, and the monitor's counters
// before and after (zero without a monitor).
type replayResult struct {
	p        *pipeline
	splits   int64
	atoms    int
	st0, st1 monitor.Stats
}

// tracedReplay runs pass without and with spans, alternately, twice
// each. It returns the last traced replay with its tracer, and the
// tracing overhead: the traced passes' wall time over the untraced
// passes', minus 1. Span self times include that overhead; callers
// divide summed self times by 1+overhead before comparing them with
// untraced wall time.
func tracedReplay(pass func(tr *tracer) (*replayResult, time.Duration, error)) (*replayResult, *tracer, float64, error) {
	var plain, traced time.Duration
	var res *replayResult
	var tr *tracer
	for range 2 {
		_, d, err := pass(nil)
		if err != nil {
			return nil, nil, 0, err
		}
		plain += d
		tr = newTracer(1 << 16)
		if res, d, err = pass(tr); err != nil {
			return nil, nil, 0, err
		}
		traced += d
	}
	return res, tr, traced.Seconds()/plain.Seconds() - 1, nil
}
