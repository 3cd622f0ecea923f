package workload

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/object"
)

// The three idioms every scripted (non-Runner) workload is built from
// — the checker's scenarios and the experiments' closed loops — each
// written once.

// Populate creates n objects of size bytes, homed round-robin on
// owners, and returns them in creation order. Call Cluster.Run to
// drain their announcements.
func Populate(owners []*core.Node, n, size int) ([]*object.Object, error) {
	return populate(owners, n, size, 0)
}

func populate(owners []*core.Node, n, size, fotCap int) ([]*object.Object, error) {
	objs := make([]*object.Object, n)
	for i := range objs {
		home := owners[i%len(owners)]
		o, err := object.New(home.NewHomedID(), size, fotCap)
		if err != nil {
			return nil, err
		}
		if err := home.AdoptObject(o); err != nil {
			return nil, err
		}
		objs[i] = o
	}
	return objs, nil
}

// Retry runs op until it succeeds or has been tried attempts times,
// backing off delay, 2·delay, 4·delay, … between tries. done receives
// the number of tries made and the last try's error.
func Retry(clock backend.Clock, delay netsim.Duration, attempts int, op func(done func(error)), done func(tries int, err error)) {
	var attempt func(k int)
	attempt = func(k int) {
		op(func(err error) {
			if err != nil && k+1 < attempts {
				clock.Schedule(delay<<k, func() { attempt(k + 1) })
				return
			}
			done(k+1, err)
		})
	}
	attempt(0)
}

// Loop starts a closed loop of n steps: step(i, next) begins step i
// and calls next when it completes; step i+1 begins gap later (within
// the same event when gap is 0). A step that never calls next stalls
// the loop. The returned func reports whether all n steps completed —
// ask once the clock has drained.
func Loop(clock backend.Clock, n int, gap netsim.Duration, step func(i int, next func())) (finished func() bool) {
	done := false
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			done = true
			return
		}
		step(i, func() {
			if gap == 0 {
				issue(i + 1)
				return
			}
			clock.Schedule(gap, func() { issue(i + 1) })
		})
	}
	issue(0)
	return func() bool { return done }
}

// RunToCompletion drives one Loop on c and drains the simulator. It
// returns an error if the simulator stalls before the loop completes.
func RunToCompletion(c *core.Cluster, n int, gap netsim.Duration, step func(i int, next func())) error {
	finished := Loop(c.Sim, n, gap, step)
	c.Run()
	if !finished() {
		return fmt.Errorf("workload: loop stalled before completing %d steps", n)
	}
	return nil
}
