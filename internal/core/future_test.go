package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/future"
	"repro/internal/netsim"
)

// TestAwaitPollsItsContext: under the simulator Await reads its context
// before the first event and then every ctxPollSteps events, so a
// context cancelled beforehand runs no event, one an event cancels is
// seen at the next read, and a live one waits for the future.
func TestAwaitPollsItsContext(t *testing.T) {
	c := &Cluster{Sim: netsim.NewSim(1)}
	ran := 0
	for i := 1; i <= 3*ctxPollSteps; i++ {
		c.Sim.Schedule(netsim.Duration(i), func() { ran++ })
	}
	f, resolve := future.New[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Await(ctx, c, f); !errors.Is(err, context.Canceled) || ran != 0 {
		t.Fatalf("Await on a cancelled context: %v after %d events; want context.Canceled after none", err, ran)
	}
	ctx, cancel = context.WithCancel(context.Background())
	c.Sim.Schedule(10, cancel)
	if _, err := Await(ctx, c, f); !errors.Is(err, context.Canceled) || ran != ctxPollSteps-1 {
		t.Fatalf("Await cancelled by its 10th event: %v after %d other events; want context.Canceled after %d", err, ran, ctxPollSteps-1)
	}
	c.Sim.Schedule(1, func() { resolve(7, nil) })
	if v, err := Await(context.Background(), c, f); v != 7 || err != nil {
		t.Fatalf("Await = %d, %v; want 7, nil", v, err)
	}
}
