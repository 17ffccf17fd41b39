package main

import (
	"math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// Op classes of the jobs-open traffic mix.
const (
	classHit    = "hit"    // a spec from the primed store
	classCold   = "cold"   // a fresh spec that runs on the fleet
	classRepeat = "repeat" // an earlier cold spec of the same run
)

// jobs-open sizing. Cold specs take 25-40 ms of engine time on one
// core, 15 a second, which keeps each of two workers about a quarter
// busy. Cold specs this long keep their latency mostly engine time: with
// 7 ms specs, scheduling stalls on a shared host moved the cold median
// by half between runs. A heavier cold load makes it worse: at 21 cold
// specs a second, hypervisor steal pushed the fleet towards saturation
// and the cold median tripled. Arrivals are evenly spaced, and every
// block of classBlock arrivals holds the same mix: its cold arrivals at
// fixed, evenly spaced slots (so two cold jobs do not contend for the
// fleet by chance), its hits and repeats in a seeded order. Runs differ
// in which specs arrive and in what order, not in how much load of each
// kind.
const (
	openRate        = 150.0 // arrivals per second, all classes
	classBlock      = 20
	blockCold       = 2  // at every coldEvery-th slot of a block
	blockHits       = 15 // the rest of a block: repeats
	coldEvery       = classBlock / blockCold
	repeatMinAge    = 2 * time.Second
	corpusSize      = 1024 // primed specs: 4x the store's 256-entry cache
	corpusZipfS     = 1.1  // hit popularity skew over the corpus
	tenantAlphaFrac = 0.7  // share of submissions made by the weight-3 tenant
)

// openOp is one scheduled jobs-open submission.
type openOp struct {
	Due    time.Duration
	Class  string
	Tenant int // index into tenants
	Spec   experiments.ScenarioConfig
}

// corpusSpec is the i-th primed spec. The corpus is independent of the
// run seed, so one prepared data dir serves every run of a checkout;
// the seed picks which corpus entries are hit and how often.
func corpusSpec(i int) experiments.ScenarioConfig {
	attack, mal := "drop", 1
	if i%3 == 0 {
		attack, mal = "none", 0
	}
	return experiments.ScenarioConfig{
		N: 20 + 5*(i%4), Topology: "geometric", Query: "min",
		Attack: attack, Malicious: mal, Synopses: 100,
		Trials: 2, Seed: uint64(1_000_000 + i), Workers: 1,
	}
}

// coldSpec is the i-th fresh spec of a run, with a seed no other run or
// corpus entry uses.
func coldSpec(seed uint64, i int) experiments.ScenarioConfig {
	return experiments.ScenarioConfig{
		N: 100, Topology: "geometric", Query: "min",
		Attack: "drop", Malicious: 2, Synopses: 100,
		Trials: 2, Seed: 1<<40 + seed<<20 + uint64(i), Workers: 1,
	}
}

// openSchedule draws the jobs-open arrivals for seconds of load at
// openRate: each a hit (Zipf over the corpus), a cold spec, or a repeat
// of a cold spec due at least repeatMinAge earlier (so it has been
// written back and the repeat reads it). Same seed, same schedule.
func openSchedule(seed uint64, seconds int) []openOp {
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, corpusZipfS, 1, corpusSize-1)
	// Popularity rank -> corpus entry, so the hottest specs differ by seed.
	perm := rng.Perm(corpusSize)
	n := int(openRate * float64(seconds))
	gap := time.Second / time.Duration(openRate)
	ops := make([]openOp, 0, n)
	var colds []openOp
	var block []int
	for i := 0; i < n; i++ {
		if i%classBlock == 0 {
			block = rng.Perm(classBlock - blockCold)
		}
		coldSlot := i%classBlock%coldEvery == 0
		slot := -1
		if !coldSlot {
			slot, block = block[0], block[1:]
		}
		op := openOp{Due: time.Duration(i) * gap, Tenant: 1}
		if rng.Float64() < tenantAlphaFrac {
			op.Tenant = 0
		}
		// A repeat needs a cold spec old enough to be stored; early in the
		// run there is none, and the arrival is a cold one instead.
		old := 0
		for old < len(colds) && colds[old].Due <= op.Due-repeatMinAge {
			old++
		}
		switch {
		case !coldSlot && slot < blockHits:
			op.Class = classHit
			op.Spec = corpusSpec(perm[zipf.Uint64()])
		case coldSlot || old == 0:
			op.Class = classCold
			op.Spec = coldSpec(seed, len(colds))
			colds = append(colds, op)
		default:
			op.Class = classRepeat
			op.Spec = colds[rng.Intn(old)].Spec
		}
		ops = append(ops, op)
	}
	return ops
}

// sweepGrid is the sweep-fleet grid of one round: a Section IX-style
// cross product over the repository's small network sizes (the pinpoint
// and wormhole experiments use n = 50, 100, 200), every topology, every
// attack, and one and two compromised sensors: 3 x 3 x (1 + 6 x 2) = 117
// cells. Each round has its own seed, so a run samples many placements.
func sweepGrid(seed uint64, round int) sweep.Grid {
	return sweep.Grid{
		N:         []int{50, 100, 200},
		Topology:  []string{"geometric", "grid", "line"},
		Query:     []string{"min"},
		Attack:    []string{"none", "drop", "hide", "junk", "choke", "drop-choke", "mute"},
		Malicious: []int{1, 2},
		Trials:    2,
		Seed:      1<<41 + seed<<8 + uint64(round),
		Workers:   1,
	}
}

// paperJobs are one paper-scale round: a MIN query at the paper's
// n = 1000 under five junk injectors (which always forces a pinpointing
// walk and a revocation) and a 100-synopsis SUM query at the same size,
// two trials each.
//
// The MIN jobs cycle through a fixed pool of paperPool seeds, one per
// round, starting at a seed-chosen entry: a pinpointing walk's cost swings by
// 2x with the injector's placement, so MIN specs drawn from the run seed
// would make every paper-scale figure spread wider than any useful
// bound at the run length the benchmark can afford. The SUM job's cost
// barely depends on its inputs, so its seed comes from the run seed.
func paperJobs(seed uint64, round int) []experiments.ScenarioConfig {
	pool := (seed + uint64(round)) % paperPool
	return []experiments.ScenarioConfig{
		{N: 1000, Topology: "geometric", Query: "min", Attack: "junk", Malicious: 5,
			Synopses: 100, Trials: 2, Seed: 1<<42 + pool, Workers: 1},
		{N: 1000, Topology: "geometric", Query: "sum", Attack: "none",
			Synopses: 100, Trials: 2, Seed: 1<<43 + seed<<8 + uint64(round), Workers: 1},
	}
}

// paperPool is the number of MIN specs paper-scale cycles through.
const paperPool = 5
