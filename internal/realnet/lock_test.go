package realnet_test

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/conformance"
	"repro/internal/realnet"
)

// TestNodeUpcallsOverlap: each node calls up under its own lock, so two
// nodes' upcalls run at once. A's upcall sends to B and then waits for
// B's upcall, which under one lock for every node could not run first.
func TestNodeUpcallsOverlap(t *testing.T) {
	rn := realnet.NewCluster()
	defer rn.Close()
	a, err := rn.NewLink("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rn.NewLink("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	toA, toB := conformance.Frame(t, 2, 1, 0), conformance.Frame(t, 1, 2, 0)
	bRan, overlapped := make(chan struct{}), make(chan bool, 1)
	a.SetOnFrame(func(backend.Frame) {
		a.SendBuf(toB, nil)
		select {
		case <-bRan:
			overlapped <- true
		case <-time.After(time.Second):
			overlapped <- false
		}
	})
	b.SetOnFrame(func(backend.Frame) { close(bRan) })
	rn.Start()
	b.Exec(func() { b.SendBuf(toA, nil) })
	select {
	case ok := <-overlapped:
		if !ok {
			t.Fatal("node B's upcall did not run while node A's was in progress")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node A's upcall never ran")
	}
}

// TestLockStatsCountContention: a frame that arrives while its node's
// lock is held waits for it, and the wait is counted and timed.
func TestLockStatsCountContention(t *testing.T) {
	rn := realnet.NewCluster()
	defer rn.Close()
	a, err := rn.NewLink("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan struct{}, 1)
	a.SetOnFrame(func(backend.Frame) { delivered <- struct{}{} })
	rn.Start()
	const held = 20 * time.Millisecond
	a.Exec(func() {
		a.SendBuf(conformance.Frame(t, 1, 1, 0), nil)
		time.Sleep(held)
	})
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered")
	}
	if _, s := rn.Stats(); s.Contended == 0 || s.WaitNs == 0 || s.Acquired <= s.Contended {
		t.Errorf("lock stats %+v: want the delivery counted as contended and its wait timed", s)
	}
}
