package main

// gen.go is the benchmark's input generator (the "bench" layer). Every
// input is a pure function of the run's seed: each generator draws from
// its own stream, derived from the seed and a fixed stream number, so
// changing one workload's inputs never shifts another's.

import (
	"fmt"
	"math/rand"

	"deltanet/client"
	"deltanet/internal/bgp"
	"deltanet/internal/core"
	"deltanet/internal/ipnet"
	"deltanet/internal/netgraph"
	"deltanet/internal/routes"
	"deltanet/internal/sdnip"
	"deltanet/internal/topo"
	"deltanet/internal/trace"
)

// Generator streams, one per input.
const (
	streamSynthFeed = iota + 1
	streamSynthRoutes
	streamSynthRemoval
	streamSDNIP
	streamFlapFeed
	streamChurn
	streamQueries
)

// subSeed derives a generator's seed from the run seed (splitmix64).
func subSeed(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// synthTrace is the §4.2.1 synthetic dataset on a topology: prefixes
// from a BGP feed, shortest-path rules toward a random egress per prefix
// with random priorities, all inserted, then all removed in random
// order. With inet and 1500 prefixes it is the Table 3 "INET" trace
// (about 945k operations).
func synthTrace(topology string, prefixes int, seed int64) (*trace.Trace, error) {
	g, err := topo.Build(topology)
	if err != nil {
		return nil, err
	}
	feed := bgp.NewFeed(subSeed(seed, streamSynthFeed), 0.3)
	comp := routes.NewCompiler(g, subSeed(seed, streamSynthRoutes))
	comp.RandomPriority = true
	switches := topo.SwitchNodes(g)
	var rules []core.Rule
	for i := 0; i < prefixes; i++ {
		rules = append(rules, comp.RulesForPrefix(feed.Next(), switches)...)
	}
	ops := make([]trace.Op, 0, 2*len(rules))
	for _, r := range rules {
		ops = append(ops, trace.Op{Insert: true, Rule: r})
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamSynthRemoval)))
	for _, i := range rng.Perm(len(rules)) {
		ops = append(ops, trace.Op{Rule: core.Rule{ID: rules[i].ID}})
	}
	return &trace.Trace{Name: topology, Graph: g, Ops: ops}, nil
}

// sdnipTrace is the SDN-IP 4Switch dataset: every border advertises
// prefixesPerBorder prefixes per round over rounds rounds, insertions
// only (about 157k operations and 70k atoms at 700 x 14).
func sdnipTrace(prefixesPerBorder, rounds int, seed int64) (*trace.Trace, error) {
	g, err := topo.Build("4switch")
	if err != nil {
		return nil, err
	}
	return sdnip.FourSwitchTrace(g, prefixesPerBorder, rounds, subSeed(seed, streamSDNIP)), nil
}

// replayTraces is the replay workload's input: the synthetic INET trace
// and the SDN-IP 4Switch trace.
func replayTraces(seed int64) ([]*trace.Trace, error) {
	inet, err := synthTrace("inet", 1500, seed)
	if err != nil {
		return nil, err
	}
	fsw, err := sdnipTrace(700, 14, seed)
	if err != nil {
		return nil, err
	}
	return []*trace.Trace{fsw, inet}, nil
}

// Gateway chain of the ingest workload: ingress -> sw1 -> sw2 -> egress,
// one rule per BGP prefix on every hop, and a battery of standing
// invariants evaluated on every applied batch.
var (
	gatewayTopology   = []string{"node ingress", "node sw1", "node sw2", "node egress", "link 0 1", "link 1 2", "link 2 3"}
	gatewayInvariants = []string{"W reach 0 3", "W reach 1 3", "W reach 2 3", "W loopfree"}
)

const gatewayLinks = 3

// flapWorkingSet is the ingest workload's pre-announced rule set: per
// unique feed prefix, a static rule on each interior hop and an ingress
// rule (link 0) that the timed phase withdraws and re-announces.
func flapWorkingSet(n int, seed int64) (static, flap []client.Update) {
	feed := bgp.NewFeed(subSeed(seed, streamFlapFeed), 0.3)
	for i, p := range feed.UniquePrefixes(n) {
		iv := p.Interval()
		flap = append(flap, client.Insert(int64(i+1), 0, 0, iv.Lo, iv.Hi, int32(p.Len)))
		static = append(static,
			client.Insert(int64(n+i+1), 1, 1, iv.Lo, iv.Hi, int32(p.Len)),
			client.Insert(int64(2*n+i+1), 2, 2, iv.Lo, iv.Hi, int32(p.Len)))
	}
	return static, flap
}

// flapCycle is one full flap cycle over rules: withdraw then re-announce
// each rule in turn. A connection repeats its cycle, so any whole number
// of withdraw/announce pairs leaves the working set announced.
func flapCycle(rules []client.Update) []client.Update {
	out := make([]client.Update, 0, 2*len(rules))
	for _, r := range rules {
		out = append(out, client.Remove(r.RuleID), r)
	}
	return out
}

// Chain fabric of the verdict workload: fabricNodes switches in chains of
// fabricChainLen hops, every chain-internal hop carrying one rule for
// [0, fabricSpace), a detour link s0 -> s2 that skips chain 0's first
// hop, and fabricInvariants reach invariants enumerated diagonal by
// diagonal (sources spread evenly over the chains).
const (
	fabricNodes      = 512
	fabricChainLen   = 16
	fabricSpace      = 1 << 20
	fabricSlice      = 4096
	fabricInvariants = 10_000
	detourRuleBase   = 1 << 20

	// fabricControllers is how many controllers churn the fabric, each
	// on its own connection with its own detour rule.
	fabricControllers = 2
)

// fabric is the chain fabric: links in id order (the detour last), the
// chain-internal rules, and the reach invariants as (src, dst) pairs.
type fabric struct {
	links  [][2]int
	rules  []core.Rule
	specs  [][2]int
	detour int // the detour link id (s0 -> s2)
}

func chainFabric() *fabric {
	f := &fabric{}
	for i := 0; i+1 < fabricNodes; i++ {
		if (i+1)%fabricChainLen != 0 {
			f.rules = append(f.rules, core.Rule{ID: core.RuleID(len(f.links) + 1), Source: netgraph.NodeID(i),
				Link: netgraph.LinkID(len(f.links)), Match: ipnet.Interval{Lo: 0, Hi: fabricSpace}, Priority: 1})
			f.links = append(f.links, [2]int{i, i + 1})
		}
	}
	f.detour = len(f.links)
	f.links = append(f.links, [2]int{0, 2})
	for d := 1; len(f.specs) < fabricInvariants && d < fabricNodes; d++ {
		for i := 0; i+d < fabricNodes && len(f.specs) < fabricInvariants; i++ {
			f.specs = append(f.specs, [2]int{i, i + d})
		}
	}
	return f
}

// setupLines renders the fabric as protocol lines: nodes, links, rules
// and W registrations.
func (f *fabric) setupLines() []string {
	var out []string
	for i := 0; i < fabricNodes; i++ {
		out = append(out, fmt.Sprintf("node s%d", i))
	}
	for _, l := range f.links {
		out = append(out, fmt.Sprintf("link %d %d", l[0], l[1]))
	}
	for _, r := range f.rules {
		out = append(out, fmt.Sprintf("I %d %d %d %d %d %d", r.ID, r.Source, r.Link, r.Match.Lo, r.Match.Hi, r.Priority))
	}
	for _, s := range f.specs {
		out = append(out, fmt.Sprintf("W reach %d %d", s[0], s[1]))
	}
	return out
}

// churnOp is one detour toggle: insert a high-priority rule steering one
// address slice at s0 onto the detour link, or remove it again. Each
// toggle moves the slice's atoms between s0's two out-links.
type churnOp struct {
	insert bool
	id     core.RuleID
	lo     uint64 // insert only
}

// line renders the toggle as a protocol line for the fabric.
func (c churnOp) line(f *fabric) string {
	if c.insert {
		return fmt.Sprintf("I %d 0 %d %d %d 99", c.id, f.detour, c.lo, c.lo+fabricSlice)
	}
	return fmt.Sprintf("R %d", c.id)
}

// op is the toggle as an engine op.
func (c churnOp) op(f *fabric) core.BatchOp {
	if c.insert {
		return core.InsertOp(core.Rule{ID: c.id, Source: 0, Link: netgraph.LinkID(f.detour),
			Match: ipnet.Interval{Lo: c.lo, Hi: c.lo + fabricSlice}, Priority: 99})
	}
	return core.RemoveOp(c.id)
}

// churnStream returns n toggles of fabricControllers controllers,
// interleaved: op i belongs to controller i%fabricControllers, which
// alternates inserting and removing its own rule on its own seed-chosen
// /20-sized slice of the chain's space.
func churnStream(n int, seed int64) []churnOp {
	rng := rand.New(rand.NewSource(subSeed(seed, streamChurn)))
	var lo [fabricControllers]uint64
	for c := range lo {
		lo[c] = uint64(rng.Intn(fabricSpace/fabricSlice)) * fabricSlice
	}
	out := make([]churnOp, n)
	for i := range out {
		c, k := i%fabricControllers, i/fabricControllers
		out[i] = churnOp{insert: k%2 == 0, id: detourRuleBase + core.RuleID(c), lo: lo[c]}
	}
	return out
}

// queryLinks returns n link ids for what-if queries: seed-ordered passes
// over all numLinks links.
func queryLinks(n, numLinks int, seed int64) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, streamQueries)))
	out := make([]int, 0, n)
	for len(out) < n {
		out = append(out, rng.Perm(numLinks)...)
	}
	return out[:n]
}
