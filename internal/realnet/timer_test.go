package realnet_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/realnet"
)

// TestWallTimerResetRacesFiring re-arms and stops one timer from the
// upcall context thousands of times with delays short enough that the
// runtime is usually firing the previous arming on another goroutine at
// that moment. Whatever the interleaving: the callback runs only while
// an arming is pending, once for it, not before it is due, and Reset
// and Stop report a pending arming exactly when there is one.
func TestWallTimerResetRacesFiring(t *testing.T) {
	rn := realnet.NewCluster()
	defer rn.Close()
	link, err := rn.NewLink("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	rn.Start()
	clock := link.Clock()

	// All of this is touched under the upcall lock only.
	var (
		pending bool
		due     backend.Time
		fired   int
	)
	var tm backend.ResettableTimer
	link.Exec(func() {
		pending, due = true, clock.Now().Add(backend.Millisecond)
		tm = clock.AfterFunc(backend.Millisecond, func() {
			if !pending {
				t.Error("callback ran with no arming pending")
			}
			if now := clock.Now(); now < due {
				t.Errorf("callback ran at %v, %v before it was due", now, due.Sub(now))
			}
			pending = false
			fired++
		}).(backend.ResettableTimer)
	})

	rng := rand.New(rand.NewSource(1))
	armings, superseded := 1, 0
	for i := 0; i < 1500; i++ {
		link.Exec(func() {
			if rng.Intn(8) == 0 {
				if got := tm.Stop(); got != pending {
					t.Errorf("Stop reported %v with pending=%v", got, pending)
				}
				if pending {
					superseded++
				}
				pending = false
				return
			}
			d := backend.Duration(rng.Intn(60)) * backend.Microsecond
			if pending {
				superseded++
			}
			was := pending
			pending, due = true, clock.Now().Add(d) // read before the arming, so no later than its own
			if got := tm.Reset(d); got != was {
				t.Errorf("Reset reported %v with pending=%v", got, was)
			}
			armings++
		})
		time.Sleep(time.Duration(rng.Intn(80)) * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	link.Exec(func() {
		if pending {
			t.Error("the last arming never fired")
		}
		if fired+superseded != armings {
			t.Errorf("%d armings: %d fired, %d superseded", armings, fired, superseded)
		}
	})
}
