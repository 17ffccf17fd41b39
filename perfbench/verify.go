package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// specRef is one scenario spec as the benchmark submits it: the request
// body and a key under which identical specs share one reference run.
type specRef struct {
	Spec experiments.ScenarioConfig
	body []byte
	key  string
}

func newSpecRef(spec experiments.ScenarioConfig) specRef {
	b, err := json.Marshal(spec)
	if err != nil { // a ScenarioConfig always marshals
		panic(err)
	}
	return specRef{Spec: spec, body: b, key: string(b)}
}

// outcome is what the server said about one operation.
type outcome struct {
	OK     bool
	Rows   json.RawMessage // the server's encoding of the rows
	Err    string          // the job or cell error, when it failed
	Reason string          // why the operation did not succeed, for counting
}

// reference is a direct experiments.RunScenario run of one spec.
type reference struct {
	rows   []byte // json.Marshal of the rows, as the server encodes them
	err    string
	engine time.Duration // wall time of the direct run on one core
}

// references runs every distinct spec once through
// experiments.RunScenario, on `parallel` goroutines, after the timed
// phase. The engine time each one took feeds the per-layer figures.
func references(refs []specRef, parallel int) map[string]reference {
	out := map[string]reference{}
	var todo []specRef
	for _, r := range refs {
		if _, ok := out[r.key]; !ok {
			out[r.key] = reference{}
			todo = append(todo, r)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan specRef)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				spec := r.Spec
				spec.Workers = 1
				start := time.Now()
				rows, err := experiments.RunScenario(spec)
				ref := reference{engine: time.Since(start)}
				if err != nil {
					ref.err = err.Error()
				} else if ref.rows, err = json.Marshal(rows); err != nil {
					ref.err = "marshal: " + err.Error()
				}
				mu.Lock()
				out[r.key] = ref
				mu.Unlock()
			}
		}()
	}
	for _, r := range todo {
		next <- r
	}
	close(next)
	wg.Wait()
	return out
}

// verdict is the correctness check's result over every operation.
type verdict struct {
	Correct   bool
	Attempted int
	Failed    int
	Reasons   map[string]int // failed or wrong operations by reason
}

// check compares every operation's returned rows byte for byte with the
// direct run of its spec. A failed job must fail the same way the
// direct run does; either way it counts as failed. Rows that differ,
// or a failure where the direct run succeeds (or the reverse), make
// the run incorrect.
func check(ops []opResult, refs map[string]reference) verdict {
	v := verdict{Correct: true, Attempted: len(ops), Reasons: map[string]int{}}
	for _, op := range ops {
		ref := refs[op.Spec.key]
		o := op.Outcome
		switch {
		case o.OK && ref.err == "" && bytes.Equal(o.Rows, ref.rows):
			continue
		case o.OK && ref.err == "":
			v.Correct = false
			v.Reasons["wrong rows"]++
		case o.OK:
			v.Correct = false
			v.Reasons["rows where the direct run fails: "+ref.err]++
		case o.Reason == "failed" && ref.err != "" && strings.Contains(o.Err, ref.err):
			v.Reasons["failed as the direct run does: "+ref.err]++
		case o.Reason == "failed":
			v.Correct = false
			v.Reasons[fmt.Sprintf("failed unlike the direct run (%q): %s", ref.err, o.Err)]++
		default:
			v.Reasons[o.Reason]++
		}
		v.Failed++
	}
	return v
}

func (v verdict) String() string {
	var b strings.Builder
	word := "correct"
	if !v.Correct {
		word = "INCORRECT"
	}
	fmt.Fprintf(&b, "%s: %d of %d operations failed", word, v.Failed, v.Attempted)
	keys := make([]string, 0, len(v.Reasons))
	for k := range v.Reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n  %6d  %s", v.Reasons[k], k)
	}
	return b.String()
}
