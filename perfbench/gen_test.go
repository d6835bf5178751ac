package main

import (
	"reflect"
	"testing"
)

// Seeds that BENCHMARK results are recorded on: the default seed, and a
// held-out seed that later performance claims must also hold on.
const (
	defaultSeed  = 1
	heldOutSeed  = 7919
	testChurnOps = 1000
)

// TestSeedsChangeInputsNotSizes checks that every generator's output
// depends on the seed while its size does not, so two seeds exercise
// different inputs with the same amount of work.
func TestSeedsChangeInputsNotSizes(t *testing.T) {
	a, err := replayTraces(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayTraces(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Ops) != len(b[i].Ops) || a[i].NumInserts() != b[i].NumInserts() {
			t.Errorf("%s: seed %d gives %d ops (%d inserts), seed %d gives %d (%d)", a[i].Name,
				defaultSeed, len(a[i].Ops), a[i].NumInserts(), heldOutSeed, len(b[i].Ops), b[i].NumInserts())
		}
		if reflect.DeepEqual(a[i].Ops, b[i].Ops) {
			t.Errorf("%s: seeds %d and %d give the same ops", a[i].Name, defaultSeed, heldOutSeed)
		}
	}

	sa, fa := flapWorkingSet(ingestWorkingSet, defaultSeed)
	sb, fb := flapWorkingSet(ingestWorkingSet, heldOutSeed)
	if len(sa) != len(sb) || len(fa) != len(fb) {
		t.Errorf("flap working set sizes differ: %d+%d vs %d+%d", len(sa), len(fa), len(sb), len(fb))
	}
	if reflect.DeepEqual(fa, fb) {
		t.Error("flap working set does not depend on the seed")
	}

	ca, cb := churnStream(testChurnOps, defaultSeed), churnStream(testChurnOps, heldOutSeed)
	if len(ca) != len(cb) {
		t.Errorf("churn lengths differ: %d vs %d", len(ca), len(cb))
	}
	if reflect.DeepEqual(ca, cb) {
		t.Error("churn slice does not depend on the seed")
	}

	qa, qb := queryLinks(100, 50, defaultSeed), queryLinks(100, 50, heldOutSeed)
	if len(qa) != len(qb) || reflect.DeepEqual(qa, qb) {
		t.Error("query link order does not depend on the seed")
	}
}

// TestSeedsAreReproducible checks that one seed always gives the same
// inputs.
func TestSeedsAreReproducible(t *testing.T) {
	a, err := replayTraces(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayTraces(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Ops, b[i].Ops) {
			t.Errorf("%s: seed %d is not reproducible", a[i].Name, defaultSeed)
		}
	}
	if !reflect.DeepEqual(churnStream(testChurnOps, heldOutSeed), churnStream(testChurnOps, heldOutSeed)) {
		t.Error("churn stream is not reproducible")
	}
}

// TestPercentileNeedsSamplesBeyond checks the sample-honesty rule: a
// percentile is only reported with at least minBeyond samples above it.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	s := &samples{name: "t"}
	for i := 0; i < 999; i++ {
		s.add(1)
	}
	if _, err := s.quantile(0.99); err == nil {
		t.Error("p99 of 999 samples reported with fewer than 10 beyond it")
	}
	s.add(1)
	if _, err := s.quantile(0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}
