package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestOpenScheduleIsSeeded(t *testing.T) {
	a, b := openSchedule(7, 5), openSchedule(7, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 5)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestOpenScheduleShape(t *testing.T) {
	const secs = 20
	sched := openSchedule(3, secs)
	want := openRate * secs
	if n := float64(len(sched)); n != want {
		t.Fatalf("%d arrivals in %d s, want %.0f", len(sched), secs, want)
	}
	count := map[string]int{}
	colds := map[string]time.Duration{} // spec -> due time
	corpus := map[string]bool{}
	for i := 0; i < corpusSize; i++ {
		corpus[newSpecRef(corpusSpec(i)).key] = true
	}
	prev := time.Duration(-1)
	for i, op := range sched {
		if i%classBlock%coldEvery == 0 && op.Class != classCold {
			t.Fatalf("arrival %d is a %s, want a cold one at every %d-th slot", i, op.Class, coldEvery)
		}
		if op.Due < prev || op.Due >= secs*time.Second {
			t.Fatalf("due time %v out of order or past the end", op.Due)
		}
		prev = op.Due
		count[op.Class]++
		key := newSpecRef(op.Spec).key
		switch op.Class {
		case classHit:
			if !corpus[key] {
				t.Fatalf("hit %s is not a primed spec", key)
			}
		case classCold:
			if corpus[key] || colds[key] != 0 {
				t.Fatalf("cold spec %s is not fresh", key)
			}
			colds[key] = op.Due + 1 // +1 keeps a due time of 0 non-zero
		case classRepeat:
			due, ok := colds[key]
			if !ok || op.Due-(due-1) < repeatMinAge {
				t.Fatalf("repeat of %s is not of a cold spec due %v earlier", key, repeatMinAge)
			}
		}
	}
	if got, want := count[classHit], len(sched)*blockHits/classBlock; got != want {
		t.Errorf("%d hits, want exactly %d", got, want)
	}
	cold := len(sched) * blockCold / classBlock
	if got := count[classCold]; got < cold || got > cold+int(openRate*repeatMinAge.Seconds()) {
		t.Errorf("%d cold arrivals, want %d plus the repeats due before any cold spec is old enough", got, cold)
	}
}

func TestHitsAreSkewed(t *testing.T) {
	seen := map[string]int{}
	hits := 0
	for _, op := range openSchedule(11, 20) {
		if op.Class == classHit {
			seen[newSpecRef(op.Spec).key]++
			hits++
		}
	}
	// Popular specs repeat (the decoded cache serves them) while many
	// distinct ones appear (the on-disk path serves those).
	if len(seen) > hits*3/4 || len(seen) < 256 {
		t.Fatalf("%d distinct specs among %d hits", len(seen), hits)
	}
}

func TestClosedInputsAreSeeded(t *testing.T) {
	g1, _ := json.Marshal(sweepGrid(5, 0))
	g2, _ := json.Marshal(sweepGrid(5, 0))
	g3, _ := json.Marshal(sweepGrid(6, 0))
	g4, _ := json.Marshal(sweepGrid(5, 1))
	if string(g1) != string(g2) || string(g1) == string(g3) || string(g1) == string(g4) {
		t.Fatal("sweep grid is not a function of the seed and round")
	}
	if !reflect.DeepEqual(paperJobs(5, 2), paperJobs(5, 2)) {
		t.Fatal("paper-scale jobs differ for the same seed and round")
	}
	if reflect.DeepEqual(paperJobs(5, 2), paperJobs(5, 3)) || reflect.DeepEqual(paperJobs(5, 2), paperJobs(6, 2)) {
		t.Fatal("paper-scale rounds repeat their specs")
	}
	mins := map[uint64]bool{}
	for r := 0; r < paperPool; r++ {
		mins[paperJobs(5, r)[0].Seed] = true
	}
	if len(mins) != paperPool || paperJobs(5, 0)[0].Seed != paperJobs(4, 1)[0].Seed {
		t.Fatal("paperPool rounds do not cycle once through the MIN pool")
	}
	cells, err := func() (int, error) { g := sweepGrid(5, 0); c, err := g.Expand(); return len(c), err }()
	if err != nil || cells != 117 {
		t.Fatalf("sweep grid expands to %d cells (%v), want 117", cells, err)
	}
}

// A closed round submits its operations and then reads each back at
// full speed, so the tenant's burst must cover them all: a refused
// read-back would be a benchmark artifact counted as a failure.
func TestKeyfileAdmitsClosedRounds(t *testing.T) {
	g := sweepGrid(5, 0)
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	need := map[int]int{
		tenantSweeper: len(cells) * (1 + sweepReadBacks),
		tenantPaper:   len(paperJobs(5, 0)) * (1 + paperReadBacks),
	}
	for i, n := range need {
		if b := tenants[i].Limits.Burst; b < n {
			t.Errorf("tenant %s has a burst of %d, below the %d submissions of one round", tenants[i].ID, b, n)
		}
	}
}
