package check

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/object"
)

// The small-scope exhaustive check of the coherence protocol, the
// model's second use (DESIGN §5): one home (node 2), two stations
// (nodes 0 and 1) and one object. Each station runs a script of the
// generator's five operations. Every pair of scripts in a scope runs
// unperturbed and under every schedule of the explorer's actions on the
// memory frames the unperturbed run sent, and every run is held to the
// Checker, the model every E10 run is held to.

// scope is one exhaustive pass: every pair of scripts of up to ops[w]
// operations at node w, at every size, under every schedule of up to
// depth actions on the first positions memory frames.
type scope struct {
	sizes            []int
	ops              [2]int
	depth, positions int
}

// The object sizes: one fragment and two.
const scopeSmall, scopeLarge = 2048, 40_000

var (
	// scopeFull is what the check runs under -race (scope_race_test.go):
	// at one fragment and at two, every script of up to two operations
	// per node and of up to three at one node alone, under every
	// single action on the first eight frames, and every script of one
	// operation per node under every pair of actions. 89,388 runs,
	// 164 s under -race on a 2-core box.
	scopeFull = []scope{
		{sizes: []int{scopeSmall, scopeLarge}, ops: [2]int{2, 2}, depth: 1, positions: 8},
		{sizes: []int{scopeSmall, scopeLarge}, ops: [2]int{3, 0}, depth: 1, positions: 8},
		{sizes: []int{scopeSmall, scopeLarge}, ops: [2]int{0, 3}, depth: 1, positions: 8},
		{sizes: []int{scopeSmall, scopeLarge}, ops: [2]int{1, 1}, depth: 2, positions: 8},
	}
	// scopeSlice is what tier 1 runs: up to one operation at node 0 and
	// two at node 1 at one fragment, and up to two and one at
	// both sizes, under every single action on the first eight frames.
	// 13,948 runs, 2.5–3.7 s on the same box.
	scopeSlice = []scope{
		{sizes: []int{scopeSmall}, ops: [2]int{1, 2}, depth: 1, positions: 8},
		{sizes: []int{scopeSmall, scopeLarge}, ops: [2]int{2, 1}, depth: 1, positions: 8},
	}
	// scopeRace selects scopeFull; scope_race_test.go sets it.
	scopeRace bool
)

// Operation i of a script starts at scopeLadder[i], past the previous
// one's one-fragment round trip; node 1's start scopeStagger later,
// while node 0's are in flight. An exclusive acquire that is not its
// script's last operation releases its copy scopeHold after it
// completes; the last keeps it to the end of the run.
var (
	scopeLadder  = [...]netsim.Duration{0, 100 * netsim.Microsecond, 200 * netsim.Microsecond}
	scopeStagger = 25 * netsim.Microsecond
	scopeHold    = 10 * netsim.Microsecond
)

// scopeActions are the explorer's actions, its two delays among them.
var scopeActions = []Action{
	{Kind: ActDrop}, {Kind: ActDropAll}, {Kind: ActDup},
	{Kind: ActDelay, Delay: probeDelays[0]}, {Kind: ActDelay, Delay: probeDelays[1]},
}

// scopeScenario makes a pair of scripts on an object of size bytes a
// scenario the explorer's runOnce drives, on one leaf switch (a cluster
// half as costly to build as the default three). Node 1 changes the
// copy an exclusive acquire gives it and node 0 leaves it unchanged, so
// a release goes home with its bytes or without them.
func scopeScenario(size int, scripts [2][]coherence.RecordKind) Scenario {
	cell := core.Config{Fabric: netsim.FabricConfig{Leaves: 1}}
	return Scenario{Name: "scope", Cell: cell, Pop: []Pop{{2, 1, size}}, Script: func(r *Run) error {
		o, sim := r.Objects[0], r.Cluster.Sim
		id, off := o.ID(), o.HeapBase()+8
		for w, script := range scripts {
			n, label := r.Cluster.Node(w).Coherence, fmt.Appendf(nil, "node %d", w)
			for i, kind := range script {
				sim.Schedule(scopeLadder[i]+netsim.Duration(w)*scopeStagger, func() {
					switch kind {
					case coherence.RecRead:
						n.ReadAt(id, off, 16)
					case coherence.RecWrite:
						n.WriteAt(id, off, label)
					case coherence.RecAcquireShared:
						n.AcquireShared(id)
					case coherence.RecAcquireExclusive:
						n.AcquireExclusive(id).Then(func(o *object.Object, err error) {
							if err != nil {
								return
							}
							if w == 1 {
								o.WriteAt(off, label)
							}
							if i < len(script)-1 {
								sim.Schedule(scopeHold, func() { n.Release(id) })
							}
						})
					case coherence.RecRelease:
						n.Release(id)
					}
				})
			}
		}
		return nil
	}}
}

// scopeScripts returns every script of up to n of the generator's five
// operations, which are the record kinds up to RecRelease.
func scopeScripts(n int) [][]coherence.RecordKind {
	out, last := [][]coherence.RecordKind{nil}, [][]coherence.RecordKind{nil}
	for range n {
		var next [][]coherence.RecordKind
		for _, s := range last {
			for k := range coherence.RecRelease + 1 {
				next = append(next, append(s[:len(s):len(s)], k))
			}
		}
		out, last = append(out, next...), next
	}
	return out
}

// TestCoherenceSmallScope runs scopeSlice, or scopeFull under -race.
func TestCoherenceSmallScope(t *testing.T) {
	scopes := scopeSlice
	if scopeRace {
		scopes = scopeFull
	}
	// A run's garbage is a whole cluster; collecting it less often more
	// than halves the check's time.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	runs := 0
	for _, sp := range scopes {
		for _, size := range sp.sizes {
			for _, s0 := range scopeScripts(sp.ops[0]) {
				for _, s1 := range scopeScripts(sp.ops[1]) {
					sc := scopeScenario(size, [2][]coherence.RecordKind{s0, s1})
					// walk runs sched, then every schedule that adds one
					// action on a later frame.
					var walk func(sched Schedule, from, frames int)
					walk = func(sched Schedule, from, frames int) {
						runs++
						rep, err := runOnce(sc, 1, sched, false)
						if err != nil {
							t.Fatal(err)
						}
						if !rep.Clean() {
							t.Fatalf("%d B, node 0 %v, node 1 %v, schedule %v:\n%v", size, s0, s1, sched, rep.Violations)
						}
						if len(sched) == sp.depth {
							return
						}
						if sched == nil {
							frames = min(rep.Frames, sp.positions)
						}
						for f := from; f < frames; f++ {
							for _, a := range scopeActions {
								a.Frame = f
								walk(append(sched[:len(sched):len(sched)], a), f+1, frames)
							}
						}
					}
					walk(nil, 0, 0)
				}
			}
		}
	}
	t.Logf("%d runs", runs)
}
