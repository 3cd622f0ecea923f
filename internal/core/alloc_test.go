package core

import (
	"runtime"
	"testing"

	"repro/internal/object"
	"repro/internal/serde"
)

// TestInvokeAndDerefAllocFloors pins what an invoke and a dereference
// allocate once warm, on the sharded scheme: node 1 homes a no-op code
// object and its one data argument, so placement runs the code there.
// A remote invoke (issued at node 0) allocates at most 31 times, a home
// invoke (issued at node 1) 16, and a local Deref only its Future.
func TestInvokeAndDerefAllocFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only bind without -race")
	}
	c := newTestCluster(t, Config{Seed: 42, Scheme: SchemeSharded})
	home := c.Node(1)
	code, err := home.CreateCodeObject("noop")
	if err != nil {
		t.Fatal(err)
	}
	data, err := home.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterAll("noop", func(ctx *ExecCtx) { ctx.Return(nil) })
	c.Run()
	ref, args := object.Global{Obj: code.ID()}, []object.Global{{Obj: data.ID()}}
	var done bool
	var opErr error
	onInvoke := func(_ InvokeResult, err error) { opErr, done = err, true }
	onDeref := func(_ *object.Object, err error) { opErr, done = err, true }
	op := func(what string, issue func()) func() {
		return func() {
			issue()
			c.Run()
			if !done || opErr != nil {
				t.Fatalf("%s: done=%v err=%v", what, done, opErr)
			}
			done = false
		}
	}
	remote := op("remote invoke", func() { c.Node(0).Invoke(ref, args, onInvoke) })
	local := op("home invoke", func() { home.Invoke(ref, args, onInvoke) })
	deref := op("local deref", func() { home.Deref(ref).Then(onDeref) })
	for i := 0; i < 32; i++ {
		remote()
		local()
		deref()
	}
	for _, g := range []struct {
		what string
		op   func()
		max  float64
	}{
		{"remote invoke", remote, 31},
		{"home invoke", local, 16},
		{"local deref", deref, 1},
	} {
		if allocs := testing.AllocsPerRun(100, g.op); allocs > g.max {
			t.Errorf("%s allocates %v/op, want <=%v", g.what, allocs, g.max)
		}
	}
}

// TestInvokeDecodeBoundsArgCount: an invoke request that claims more
// arguments than its body holds is refused before the argument slice
// is made, so 27 bytes cannot make the server allocate 25 MB.
func TestInvokeDecodeBoundsArgCount(t *testing.T) {
	e := serde.NewEncoder(32)
	putGlobal(e, object.Global{})
	e.PutUvarint(1 << 20)
	raw := e.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := unmarshalInvoke(raw)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a %d-byte body claiming 1<<20 args decoded", len(raw))
	}
	if b := after.TotalAlloc - before.TotalAlloc; b >= 4<<10 {
		t.Fatalf("decoding a %d-byte body allocated %d B, want < 4 KiB", len(raw), b)
	}
}
