package future

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestThenRunsInRegistrationOrder: the inline first subscriber runs
// before those that came after it.
func TestThenRunsInRegistrationOrder(t *testing.T) {
	f := new(Future[int])
	var got []string
	for _, name := range []string{"first", "second", "third"} {
		f.Then(func(v int, err error) { got = append(got, name) })
	}
	f.Resolve(7, nil)
	if want := []string{"first", "second", "third"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("subscribers ran %v, want %v", got, want)
	}
}

// TestThenAfterResolveRunsAtOnce: a Then on a resolved future runs
// before it returns, also when a subscriber of that future calls it.
func TestThenAfterResolveRunsAtOnce(t *testing.T) {
	f := new(Future[int])
	boom := errors.New("boom")
	var got []string
	f.Then(func(v int, err error) {
		got = append(got, "outer")
		f.Then(func(v int, err error) {
			if v != 3 || err != boom {
				t.Errorf("nested subscriber got %d, %v; want 3, boom", v, err)
			}
			got = append(got, "nested")
		})
		got = append(got, "outer returns")
	})
	f.Then(func(int, error) { got = append(got, "second") })
	f.Resolve(3, boom)
	f.Then(func(int, error) { got = append(got, "late") })
	if want := []string{"outer", "nested", "outer returns", "second", "late"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
}

// TestSecondResolveIsIgnored: the first resolution wins, and subscribers
// run once.
func TestSecondResolveIsIgnored(t *testing.T) {
	f, resolve := New[string]()
	calls := 0
	f.Then(func(string, error) { calls++ })
	if f.Done() {
		t.Fatal("Done before resolution")
	}
	if _, err := f.Result(); err != ErrNotReady {
		t.Fatalf("Result before resolution: %v, want ErrNotReady", err)
	}
	resolve("a", nil)
	f.Resolve("b", errors.New("late"))
	if v, err := f.Result(); v != "a" || err != nil || calls != 1 || !f.Done() {
		t.Fatalf("Result = %q, %v after %d calls; want \"a\", nil after 1", v, err, calls)
	}
}

// TestAwait: on a resolved future Await returns its resolution; on an
// unresolved one it returns ctx's error once ctx ends, and the
// resolution when another goroutine resolves it first.
func TestAwait(t *testing.T) {
	f := new(Future[int])
	f.Resolve(5, nil)
	if v, err := f.Await(context.Background()); v != 5 || err != nil {
		t.Fatalf("Await on a resolved future = %d, %v; want 5, nil", v, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := new(Future[int]).Await(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Await with a cancelled context: %v, want context.Canceled", err)
	}

	for i := 0; i < 100; i++ {
		f := new(Future[int])
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Resolve(i, nil)
		}()
		v, err := f.Await(context.Background())
		wg.Wait()
		if v != i || err != nil {
			t.Fatalf("Await beside a concurrent Resolve = %d, %v; want %d, nil", v, err, i)
		}
	}
}

var kept *Future[int]

// newThenResolve is the allocation gate: a future, one Then and its
// resolution — the way an operation's caller uses one, the future
// outliving the call — allocate the future and nothing else. It returns
// that sequence, gated.
func newThenResolve(tb testing.TB) func() {
	n := 0
	inc := func(int, error) { n++ }
	run := func() {
		f, resolve := New[int]()
		kept = f
		f.Then(inc)
		resolve(1, nil)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 1 {
		tb.Fatalf("a future with one Then allocates %v, want 1", allocs)
	}
	if n != 101 {
		tb.Fatalf("the subscriber ran %d times, want 101", n)
	}
	return run
}

func TestFutureCostsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only bind without -race")
	}
	newThenResolve(t)
}

// BenchmarkFuture_NewThenResolve runs the gate even under
// -benchtime=1x, then times the gated sequence.
func BenchmarkFuture_NewThenResolve(b *testing.B) {
	run := newThenResolve(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
