package workload

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/netsim"
)

// TestRetryBackoffAndLoopPacing pins the virtual instants of the two
// shared recursions: Retry tries at 0, d, 3d, 7d, … and gives up after
// attempts tries; Loop begins step i+1 exactly gap after step i
// completes.
func TestRetryBackoffAndLoopPacing(t *testing.T) {
	const d = 250 * netsim.Microsecond
	sim := netsim.NewSim(1)
	boom := errors.New("boom")
	var tried []netsim.Time
	tries, last := 0, error(nil)
	Retry(sim, d, 4, func(done func(error)) {
		tried = append(tried, sim.Now())
		done(boom)
	}, func(n int, err error) { tries, last = n, err })
	sim.Run()
	if want := []netsim.Time{0, netsim.Time(d), netsim.Time(3 * d), netsim.Time(7 * d)}; !reflect.DeepEqual(tried, want) {
		t.Fatalf("tries at %v, want %v (delays d, 2d, 4d)", tried, want)
	}
	if tries != 4 || !errors.Is(last, boom) {
		t.Fatalf("gave up after %d tries with %v, want 4 and boom", tries, last)
	}
	// A success stops the retries and reports how many tries it took.
	calls := 0
	Retry(sim, d, 4, func(done func(error)) {
		if calls++; calls < 2 {
			done(boom)
			return
		}
		done(nil)
	}, func(n int, err error) { tries, last = n, err })
	sim.Run()
	if calls != 2 || tries != 2 || last != nil {
		t.Fatalf("succeeding op: %d calls, %d tries, err %v", calls, tries, last)
	}

	const gap, service = 40 * netsim.Microsecond, 7 * netsim.Microsecond
	sim = netsim.NewSim(1)
	var began, completed []netsim.Time
	finished := Loop(sim, 3, gap, func(_ int, next func()) {
		began = append(began, sim.Now())
		sim.Schedule(service, func() {
			completed = append(completed, sim.Now())
			next()
		})
	})
	if finished() {
		t.Fatal("loop finished before the clock ran")
	}
	sim.Run()
	if !finished() || len(began) != 3 {
		t.Fatalf("loop ran %d of 3 steps (finished=%v)", len(began), finished())
	}
	for i := 1; i < len(began); i++ {
		if got := began[i].Sub(completed[i-1]); got != gap {
			t.Fatalf("step %d began %v after step %d completed, want %v", i, got, i-1, gap)
		}
	}
	// gap 0 chains steps inside one event: no virtual time passes.
	began = began[:0]
	Loop(sim, 3, 0, func(_ int, next func()) { began = append(began, sim.Now()); next() })
	if len(began) != 3 || began[0] != began[2] {
		t.Fatalf("gap-0 loop began at %v, want three steps at one instant", began)
	}
}
