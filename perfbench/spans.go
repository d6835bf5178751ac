package main

// spans.go is the traced run's span recorder. The benchmark records a
// span around each call it makes into a layer's public entry point;
// spans stay in memory and are written out when the run ends. A layer's
// self time is its spans' durations minus the time their child spans
// cover.

import (
	"bufio"
	"encoding/binary"
	"os"
	"time"
)

// Span names, one per traced entry point.
const (
	spCore    = iota // core.Network InsertRuleInto / RemoveRuleInto / ApplyBatch
	spLoop           // check.FindLoopsDelta / FindLoopsDeltaAuto
	spWhatif         // check.AffectedByLinkFailure
	spMonitor        // monitor.Monitor.ApplyWithLoops
	spDirty          // monitor dirty marking (from the trace sink)
	spEval           // monitor evaluation fan-out (from the trace sink)
	spPublish        // monitor event publish (from the trace sink)
	spEncode         // binproto.AppendOps
	spDecode         // binproto.Reader.Read
	spRing           // ingest.Ring Push + Pop
	spJournal        // journal record render + journal.Journal.Append
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"core", "check.loop", "check.whatif", "monitor.pass", "monitor.dirty",
	"monitor.eval", "monitor.publish", "binproto.encode", "binproto.decode",
	"ingest.ring", "journal.append",
}

// span is one recorded interval. start is nanoseconds since the
// tracer's base; parent indexes the enclosing span (-1 for none); id is
// the update or batch the span served.
type span struct {
	start  int64
	dur    int64
	id     int32
	parent int32
	name   uint8
}

// tracer records spans. A nil *tracer records nothing and takes no
// timestamps, so the untraced pass runs the identical code path.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 when not tracing).
func (t *tracer) begin(name int, id int, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.base)), id: int32(id), parent: parent, name: uint8(name)})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].dur = int64(time.Since(t.base)) - t.spans[i].start
}

// child records an already-measured interval inside parent, starting at
// off nanoseconds after the parent's start (the monitor's trace sink
// reports stage durations, not timestamps).
func (t *tracer) child(name int, parent int32, off, dur int64) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, span{start: p.start + off, dur: dur, id: p.id, parent: parent, name: uint8(name)})
}

// selfTimes returns, per span name, the summed self time (duration
// minus child durations) and the span count.
func (t *tracer) selfTimes() (self [numSpanNames]int64, count [numSpanNames]int) {
	for _, s := range t.spans {
		self[s.name] += s.dur
		count[s.name]++
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.dur
		}
	}
	return self, count
}

// totalTimes returns, per span name, the summed inclusive duration.
func (t *tracer) totalTimes() (total [numSpanNames]int64) {
	for _, s := range t.spans {
		total[s.name] += s.dur
	}
	return total
}

// writeFile dumps the spans: a header line naming the span kinds, then
// one little-endian record per span (start, dur int64; id, parent
// int32; name uint8).
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("perfbench-spans 1")
	for _, n := range spanNames {
		w.WriteString(" " + n)
	}
	w.WriteString("\n")
	var rec [25]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.dur))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.id))
		binary.LittleEndian.PutUint32(rec[20:], uint32(s.parent))
		rec[24] = s.name
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
