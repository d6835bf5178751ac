package main

// harness.go boots an in-process server on loopback and reads its
// metrics, for the two server workloads.

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"deltanet/client"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/metrics"
	"deltanet/internal/netgraph"
	"deltanet/internal/server"
)

// serverRig is a running in-process server with its metric registry.
type serverRig struct {
	s    *server.Server
	reg  *metrics.Registry
	addr string
	done chan struct{}
}

// startServer boots a server with a metric registry (the production
// observability surface, dnserve -admin) plus opts.
func startServer(opts ...server.Option) (*serverRig, error) {
	reg := metrics.NewRegistry()
	s := server.New(append(opts, server.WithMetrics(reg))...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serverRig{s: s, reg: reg, addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(rig.done)
		s.Serve(l)
	}()
	return rig, nil
}

// stop closes the server and waits for its goroutines.
func (rig *serverRig) stop() {
	rig.s.Close()
	<-rig.done
}

// scrape renders the registry and returns every sample by its series
// name, labels included (e.g. `dnserve_update_stage_seconds_sum{stage="parse"}`).
func (rig *serverRig) scrape() (map[string]float64, error) {
	var b strings.Builder
	if err := rig.reg.WriteText(&b); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// stageNs returns a pipeline stage histogram's summed nanoseconds.
func stageNs(m map[string]float64, stage string) float64 {
	return m[`dnserve_update_stage_seconds_sum{stage="`+stage+`"}`] * 1e9
}

// do sends each line on c and fails on the first error response.
func do(c *client.Client, lines []string) error {
	for _, line := range lines {
		if _, err := c.Do(line); err != nil {
			return fmt.Errorf("%q: %w", line, err)
		}
	}
	return nil
}

// batchOp converts a wire update to the engine's op.
func batchOp(u client.Update) core.BatchOp {
	if !u.Insert {
		return core.RemoveOp(core.RuleID(u.RuleID))
	}
	return core.InsertOp(core.Rule{ID: core.RuleID(u.RuleID), Source: netgraph.NodeID(u.Source),
		Link: netgraph.LinkID(u.Link), Match: ipnet.Interval{Lo: u.Lo, Hi: u.Hi}, Priority: core.Priority(u.Priority)})
}

// reqLoop drives one line-protocol connection in a closed loop: send a
// request, wait for its response, repeat. Latency is timed from the send
// to the response, into one sample set per request kind.
type reqLoop struct {
	bw   *bufio.Writer
	sc   *bufio.Scanner
	done []int // answered requests per kind
	nBad int   // non-ok responses
	lost int   // requests sent but never answered
	bad  []string
}

func newReqLoop(conn net.Conn, kinds int) *reqLoop {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), 1<<20)
	return &reqLoop{bw: bufio.NewWriter(conn), sc: sc, done: make([]int, kinds)}
}

// run sends n next() requests. next returns the request line and its
// kind; the response must start with okPrefix[kind], and its latency
// goes to lat[kind].
func (q *reqLoop) run(n int, next func() (string, int), lat []*samples, okPrefix []string) {
	for range n {
		line, kind := next()
		q.bw.WriteString(line)
		q.bw.WriteByte('\n')
		t0 := time.Now()
		if err := q.bw.Flush(); err != nil || !q.sc.Scan() {
			q.lost++
			return
		}
		lat[kind].add(time.Since(t0))
		q.done[kind]++
		if resp := q.sc.Text(); !strings.HasPrefix(resp, okPrefix[kind]) {
			if q.nBad++; len(q.bad) < 3 {
				q.bad = append(q.bad, resp)
			}
		}
	}
}
