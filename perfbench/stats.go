package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// A percentile with fewer is an extrapolation, and the run fails rather
// than print it.
const minBeyond = 10

// samples is a set of durations in nanoseconds. int32 holds up to ~2.1s
// per sample, far above any latency a healthy run produces, and halves
// the memory of a multi-million-sample replay.
type samples struct {
	name string
	v    []int32
}

func (s *samples) add(d time.Duration) {
	ns := d.Nanoseconds()
	if ns > math.MaxInt32 {
		ns = math.MaxInt32
	}
	s.v = append(s.v, int32(ns))
}

func (s *samples) len() int { return len(s.v) }

// quantile returns the q-quantile (nearest rank) in nanoseconds. It
// fails when fewer than minBeyond samples lie above it.
func (s *samples) quantile(q float64) (float64, error) {
	n := len(s.v)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g needs %d samples beyond it, have %d of %d",
			s.name, q*100, minBeyond, beyond, n)
	}
	if !slices.IsSorted(s.v) {
		slices.Sort(s.v)
	}
	return float64(s.v[idx]), nil
}

// total is the sum of the samples.
func (s *samples) total() time.Duration {
	var sum int64
	for _, x := range s.v {
		sum += int64(x)
	}
	return time.Duration(sum)
}

// meanNs is the arithmetic mean in nanoseconds (0 for an empty set).
func (s *samples) meanNs() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return float64(s.total()) / float64(len(s.v))
}

// medianOf returns the median of xs (the mean of the middle pair for an
// even count).
func medianOf(xs []float64) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// msSince returns the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one reported figure. n is the sample count behind a timing
// (0 for counts and ratios).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects one run's figures and its correctness verdict.
type report struct {
	workload  string
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
	genMs     float64  // time the generator took to build the inputs
	problems  []string // correctness failures; any one fails the run
	notes     []string // informational lines printed with the table
}

func (r *report) addE2E(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

func (r *report) addLayer(name string, v float64, unit string, n int) {
	r.layer = append(r.layer, metric{name, v, unit, n})
}

// rounds collects per-round figures. A run's timed phase is a series of
// identical rounds; each metric is computed per round and reported as
// the median across rounds, so one disturbed round (a noisy neighbour, a
// GC cycle) cannot move the result.
type rounds struct {
	order []string
	vals  map[string][]float64
	units map[string]string
	n     map[string]int
}

func newRounds() *rounds {
	return &rounds{vals: map[string][]float64{}, units: map[string]string{}, n: map[string]int{}}
}

func (rs *rounds) add(name string, v float64, unit string, n int) {
	if _, ok := rs.vals[name]; !ok {
		rs.order = append(rs.order, name)
	}
	rs.vals[name] = append(rs.vals[name], v)
	rs.units[name] = unit
	rs.n[name] += n
}

// addLatency records one round's <prefix>_p50_us and <prefix>_p99_us.
func (rs *rounds) addLatency(prefix string, s *samples) error {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p50_us", 0.50}, {"_p99_us", 0.99}} {
		v, err := s.quantile(q.q)
		if err != nil {
			return err
		}
		rs.add(prefix+q.suffix, v/1e3, "us", s.len())
	}
	return nil
}

// emit reports each metric's median across rounds; a timing's sample
// count is its total over all rounds.
func (rs *rounds) emit(r *report) {
	r.note("rounds=%d (each metric is the median of its per-round values)", len(rs.vals[rs.order[0]]))
	for _, name := range rs.order {
		r.addE2E(name, medianOf(rs.vals[name]), rs.units[name], rs.n[name])
		var b strings.Builder
		for _, v := range rs.vals[name] {
			fmt.Fprintf(&b, " %.4g", v)
		}
		r.note("per-round %s:%s", name, b.String())
	}
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// perOp divides, reporting 0 when nothing happened (a layer the workload
// does not exercise).
func perOp(total float64, count float64) float64 {
	if count == 0 {
		return 0
	}
	return total / count
}
