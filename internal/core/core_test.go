package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/discovery"
	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/prefetch"
	"repro/internal/serde"
	"repro/internal/wire"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterTopology(t *testing.T) {
	for _, scheme := range []Scheme{SchemeE2E, SchemeController} {
		c := newTestCluster(t, Config{Scheme: scheme})
		if len(c.Nodes) != 3 {
			t.Fatalf("%v: nodes = %d", scheme, len(c.Nodes))
		}
		if len(c.Switches) != 4 {
			t.Fatalf("%v: switches = %d (paper: four interconnected)", scheme, len(c.Switches))
		}
		hasCtrl := len(c.Controllers) == 1
		if (scheme != SchemeE2E) != hasCtrl {
			t.Fatalf("%v: controller = %v", scheme, hasCtrl)
		}
		if scheme.String() == "" {
			t.Fatal("scheme name")
		}
	}
}

func TestCreateAndDerefLocal(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	n := c.Node(0)
	o, err := n.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("hello")
	var got *object.Object
	n.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.Run()
	s, _ := got.LoadString(off)
	if s != "hello" {
		t.Fatalf("got %q", s)
	}
	// Metadata service knows it.
	home, size, ok := c.Locate(o.ID())
	if !ok || home != n.Station || size != 4096 {
		t.Fatalf("Locate = %v %d %v", home, size, ok)
	}
}

func TestDerefRemoteE2E(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	owner, reader := c.Node(1), c.Node(0)
	o, err := owner.CreateObject(8192)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := o.AllocString("remote data")
	var got *object.Object
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = obj
	})
	c.Run()
	if got == nil {
		t.Fatal("deref incomplete")
	}
	s, _ := got.LoadString(off)
	if s != "remote data" {
		t.Fatalf("got %q", s)
	}
	if !reader.Store.Contains(o.ID()) {
		t.Fatal("not cached after deref")
	}
}

func TestDerefRemoteController(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeController})
	owner, reader := c.Node(2), c.Node(0)
	o, err := owner.CreateObject(8192)
	if err != nil {
		t.Fatal(err)
	}
	c.Run() // let the announcement install rules
	if c.Controllers[0].RulesInstalled() == 0 {
		t.Fatal("no rules installed after create")
	}
	ok := false
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		ok = true
	})
	c.Run()
	if !ok {
		t.Fatal("controller-routed deref failed")
	}
	// No broadcasts were needed.
	if n := c.Telemetry().Value("switch.flooded"); n != 0 {
		t.Fatalf("broadcasts = %d under controller scheme", n)
	}
}

func TestBroadcastsObservedE2E(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	owner, reader := c.Node(1), c.Node(0)
	o, _ := owner.CreateObject(4096)
	c.ResetStats()
	reader.Deref(object.Global{Obj: o.ID()})
	c.Run()
	if c.Telemetry().Value("switch.flooded") == 0 {
		t.Fatal("E2E first access should broadcast")
	}
}

func TestInvokeLocalPlacement(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	n := c.Node(0)
	for _, nd := range c.Nodes {
		nd.Registry.Register("double", func(ctx *ExecCtx) {
			d := serde.NewDecoder(ctx.Param)
			v := d.Uint64()
			e := serde.NewEncoder(8)
			e.PutUint64(v * 2)
			ctx.Return(e.Bytes())
		})
	}
	code, err := n.CreateCodeObject("double")
	if err != nil {
		t.Fatal(err)
	}
	enc := serde.NewEncoder(8)
	enc.PutUint64(21)
	var res InvokeResult
	var gotErr error
	n.Invoke(object.Global{Obj: code.ID()}, nil,
		func(r InvokeResult, err error) { res, gotErr = r, err },
		WithParam(enc.Bytes()), WithComputeWork(0.001))
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	d := serde.NewDecoder(res.Result)
	if d.Uint64() != 42 {
		t.Fatalf("result = %v", res.Result)
	}
}

func TestInvokeRemoteForced(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	caller, exec := c.Node(0), c.Node(2)
	for _, nd := range c.Nodes {
		nd := nd
		nd.Registry.Register("whoami", func(ctx *ExecCtx) {
			ctx.Return([]byte(fmt.Sprintf("station-%d", nd.Station)))
		})
	}
	code, _ := caller.CreateCodeObject("whoami")
	var res InvokeResult
	var gotErr error
	caller.Invoke(object.Global{Obj: code.ID()}, nil,
		func(r InvokeResult, err error) { res, gotErr = r, err },
		WithExecutor(exec.Station))
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if string(res.Result) != "station-3" {
		t.Fatalf("result = %q", res.Result)
	}
	if res.Executor != exec.Station {
		t.Fatalf("executor = %v", res.Executor)
	}
	// Code mobility: the code object was pulled to the executor.
	if !exec.Store.Contains(code.ID()) {
		t.Fatal("code object not moved to executor")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestInvokeSystemPlacementPicksIdleDataHolder(t *testing.T) {
	// Alice (node 0) invokes over a big object on Bob (node 1). Bob is
	// idle, so the system runs the code at Bob — data never moves.
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	alice, bob := c.Node(0), c.Node(1)
	alice.SetLoadProfile(1, 0)
	bob.SetLoadProfile(10, 0)
	c.Node(2).SetLoadProfile(10, 0.5)

	big, err := bob.CreateObject(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := big.AllocString("payload@bob")
	for _, nd := range c.Nodes {
		nd := nd
		nd.Registry.Register("peek", func(ctx *ExecCtx) {
			ctx.Node().Deref(ctx.Args[0]).Then(func(o *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				s, _ := o.LoadString(off)
				ctx.Return([]byte(fmt.Sprintf("%d:%s", nd.Station, s)))
			})
		})
	}
	code, _ := alice.CreateCodeObject("peek")
	var res InvokeResult
	var gotErr error
	alice.Invoke(object.Global{Obj: code.ID()}, []object.Global{{Obj: big.ID()}},
		func(r InvokeResult, err error) { res, gotErr = r, err },
		WithComputeWork(0.0001), WithResultSize(64))
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if res.Executor != bob.Station {
		t.Fatalf("executor = %v, want Bob; decision %+v", res.Executor, res.Decision.Candidates)
	}
	if string(res.Result) != "2:payload@bob" {
		t.Fatalf("result = %q", res.Result)
	}
	// Data gravity: the big object stayed home.
	if c.Node(0).Store.Contains(big.ID()) || c.Node(2).Store.Contains(big.ID()) {
		t.Fatal("big object moved unnecessarily")
	}
}

func TestInvokeSystemPlacementAvoidsOverloadedHolder(t *testing.T) {
	// Bob overloaded, Carol idle: with heavy compute the system moves
	// the computation (and pulls the data) to Carol — Figure 1 (3).
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	alice, bob, carol := c.Node(0), c.Node(1), c.Node(2)
	alice.SetLoadProfile(0.5, 0)
	bob.SetLoadProfile(10, 0.99)
	carol.SetLoadProfile(10, 0)

	shard, err := bob.CreateObject(256 << 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.Nodes {
		nd := nd
		nd.Registry.Register("infer", func(ctx *ExecCtx) {
			ctx.Node().Deref(ctx.Args[0]).Then(func(o *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				ctx.Return([]byte(fmt.Sprintf("ran@%d", nd.Station)))
			})
		})
	}
	code, _ := alice.CreateCodeObject("infer")
	var res InvokeResult
	var gotErr error
	alice.Invoke(object.Global{Obj: code.ID()}, []object.Global{{Obj: shard.ID()}},
		func(r InvokeResult, err error) { res, gotErr = r, err },
		WithComputeWork(50), WithResultSize(64))
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if res.Executor != carol.Station {
		t.Fatalf("executor = %v, want Carol; candidates %+v", res.Executor, res.Decision.Candidates)
	}
	if string(res.Result) != "ran@3" {
		t.Fatalf("result = %q", res.Result)
	}
	// Data was pulled on demand to Carol.
	if !carol.Store.Contains(shard.ID()) {
		t.Fatal("shard not pulled to Carol")
	}
}

func TestExecCtxSurface(t *testing.T) {
	// Exercise the full ExecCtx API from inside a function: Node (and
	// through it ReadAt and DerefAll), Return, Fail, and
	// double-completion safety.
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	driver, owner := c.Node(0), c.Node(1)
	a, _ := owner.CreateObject(4096)
	offA, _ := a.AllocString("alpha")
	b, _ := owner.CreateObject(4096)
	offB, _ := b.AllocString("beta")

	c.RegisterAll("surface", func(ctx *ExecCtx) {
		if ctx.Node() == nil {
			ctx.Fail(errors.New("no node"))
			return
		}
		ctx.Node().Coherence.ReadAt(a.ID(), offA+8, 5).Then(func(first []byte, err error) {
			if err != nil {
				ctx.Fail(err)
				return
			}
			ctx.Node().DerefAll([]object.Global{{Obj: b.ID()}}).Then(func(objs []*object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				second, _ := objs[0].LoadString(offB)
				ctx.Return([]byte(string(first) + "+" + second))
				ctx.Return([]byte("SECOND")) // must be ignored
				ctx.Fail(errors.New("too late"))
			})
		})
	})
	code, _ := driver.CreateCodeObject("surface")
	var res InvokeResult
	var gotErr error
	calls := 0
	driver.Invoke(object.Global{Obj: code.ID()}, nil,
		func(r InvokeResult, err error) { res, gotErr = r, err; calls++ },
		WithExecutor(c.Node(2).Station))
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if string(res.Result) != "alpha+beta" {
		t.Fatalf("result = %q", res.Result)
	}
}

func TestExecCtxFail(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	driver := c.Node(0)
	c.RegisterAll("fails", func(ctx *ExecCtx) {
		ctx.Fail(errors.New("deliberate"))
	})
	code, _ := driver.CreateCodeObject("fails")
	var gotErr error
	driver.Invoke(object.Global{Obj: code.ID()}, nil,
		func(_ InvokeResult, err error) { gotErr = err },
		WithExecutor(c.Node(1).Station))
	c.Run()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "deliberate") {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestClusterAccessorsAndRunFor(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	if c.Node(0).Cluster() != c {
		t.Fatal("Cluster accessor")
	}
	if c.Generator() == nil {
		t.Fatal("Generator accessor")
	}
	fired := false
	c.Sim.Schedule(10*netsim.Microsecond, func() { fired = true })
	c.RunFor(5 * netsim.Microsecond)
	if fired {
		t.Fatal("RunFor overran")
	}
	c.RunFor(10 * netsim.Microsecond)
	if !fired {
		t.Fatal("RunFor did not reach event")
	}
}

func TestInvokeUnknownSymbol(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	n := c.Node(0)
	code, _ := n.CreateCodeObject("nowhere")
	var gotErr error
	n.Invoke(object.Global{Obj: code.ID()}, nil,
		func(_ InvokeResult, err error) { gotErr = err },
		WithExecutor(n.Station))
	c.Run()
	if !errors.Is(gotErr, ErrNoFunction) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestInvokeNotCodeObject(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	n := c.Node(0)
	data, _ := n.CreateObject(4096)
	var gotErr error
	n.Invoke(object.Global{Obj: data.ID()}, nil,
		func(_ InvokeResult, err error) { gotErr = err },
		WithExecutor(n.Station))
	c.Run()
	if !errors.Is(gotErr, ErrNotCode) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestCodeObjectRoundTrip(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	n := c.Node(0)
	dep, _ := n.CreateObject(4096)
	code, err := n.CreateCodeObject("sym.test", dep.ID())
	if err != nil {
		t.Fatal(err)
	}
	sym, err := CodeSymbol(code)
	if err != nil || sym != "sym.test" {
		t.Fatalf("symbol = %q, %v", sym, err)
	}
	// Dependency is reachable (prefetchable).
	reach := code.Reachable()
	if len(reach) != 1 || reach[0] != dep.ID() {
		t.Fatalf("reachable = %v", reach)
	}
}

func TestMoveObjectAndStaleAccess(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	reader, from, to := c.Node(0), c.Node(1), c.Node(2)
	o, _ := from.CreateObject(4096)
	off, _ := o.AllocString("wanderer")
	// Warm reader's cache.
	var warmErr error
	reader.Coherence.ReadAt(o.ID(), off+8, 8).Then(func(_ []byte, err error) { warmErr = err })
	c.Run()
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	if err := c.MoveObject(o.ID(), from, to); err != nil {
		t.Fatal(err)
	}
	if home, _, _ := c.Locate(o.ID()); home != to.Station {
		t.Fatal("metadata not updated")
	}
	var got []byte
	var gotErr error
	reader.Coherence.ReadAt(o.ID(), off+8, 8).Then(func(b []byte, err error) {
		got, gotErr = append([]byte(nil), b...), err
	})
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !bytes.Equal(got, []byte("wanderer")) {
		t.Fatalf("got %q", got)
	}
	if reader.Coherence.Counters().StaleRetries == 0 {
		t.Fatal("stale retry path not exercised")
	}
}

// TestMoveKeepsSharersCoherent: the sharers follow a moved object. A
// copy the old home granted is in the new home's directory, so a write
// completed at the new home has invalidated it and the sharer's next
// acquire fetches what was written.
func TestMoveKeepsSharersCoherent(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	from, sharer, to := c.Node(0), c.Node(1), c.Node(2)
	o, _ := from.CreateObject(4096)
	off, _ := o.Alloc(4, 4)
	read := func(n *Node) string {
		t.Helper()
		var got string
		n.Coherence.AcquireShared(o.ID()).Then(func(cp *object.Object, err error) {
			if err != nil {
				t.Fatal(err)
			}
			b, _ := cp.ReadAt(off, 4)
			got = string(b)
		})
		c.Run()
		return got
	}
	write := func(n *Node, s string) {
		t.Helper()
		var err error
		done := false
		n.Coherence.WriteAt(o.ID(), off, []byte(s)).Then(func(_ struct{}, e error) { err, done = e, true })
		c.Run()
		if !done || err != nil {
			t.Fatalf("write of %q: done=%v err=%v", s, done, err)
		}
	}
	write(from, "old!")
	if got := read(sharer); got != "old!" {
		t.Fatalf("sharer read %q before the move", got)
	}
	if err := c.MoveObject(o.ID(), from, to); err != nil {
		t.Fatal(err)
	}
	if got := to.Coherence.SharerSet(o.ID()); len(got) != 1 || got[0] != sharer.Station {
		t.Errorf("new home's sharers = %v, want the one live copy holder, %v", got, sharer.Station)
	}
	write(to, "new!")
	if got := read(sharer); got != "new!" {
		t.Fatalf("sharer read %q after a completed write of %q", got, "new!")
	}
}

// An exclusive acquire issued while a shared fetch of the same object
// is in flight must not ride on that fetch: it would be told it holds
// the object exclusively while other nodes' copies stay live.
func TestExclusiveAcquireBehindSharedFetch(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	sharer, home, acq := c.Node(0), c.Node(1), c.Node(2)
	o, _ := home.CreateObject(4096)
	sharer.Coherence.AcquireShared(o.ID()).Then(func(_ *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	c.Run()
	if !sharer.Store.Contains(o.ID()) {
		t.Fatal("setup: node 0 holds no shared copy")
	}
	var shared, excl int
	acq.Coherence.AcquireShared(o.ID()).Then(func(_ *object.Object, err error) {
		if err != nil {
			t.Errorf("shared acquire: %v", err)
		}
		shared++
	})
	acq.Coherence.AcquireExclusive(o.ID()).Then(func(cp *object.Object, err error) {
		if err != nil || cp == nil {
			t.Errorf("exclusive acquire: %v, %v", cp, err)
		}
		excl++
	})
	c.Run()
	if shared != 1 || excl != 1 {
		t.Fatalf("callbacks: shared %d, exclusive %d; want one each", shared, excl)
	}
	if got := acq.Coherence.GrantedPerm(o.ID()); got != memproto.PermExclusive {
		t.Errorf("node 2 GrantedPerm = %v, want exclusive", got)
	}
	if sharer.Store.Contains(o.ID()) {
		t.Error("node 0 still holds its copy under node 2's exclusive grant")
	}
}

func TestWriteRefCoherent(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	owner, writer := c.Node(0), c.Node(1)
	o, _ := owner.CreateObject(4096)
	off, _ := o.Alloc(8, 8)
	var werr error
	writer.Coherence.WriteAt(o.ID(), off, []byte("ABCDEFGH")).Then(func(_ struct{}, err error) { werr = err })
	c.Run()
	if werr != nil {
		t.Fatal(werr)
	}
	b, _ := o.ReadAt(off, 8)
	if string(b) != "ABCDEFGH" {
		t.Fatalf("home = %q", b)
	}
}

func TestPrefetchIntegration(t *testing.T) {
	c := newTestCluster(t, Config{
		Scheme:   SchemeE2E,
		Prefetch: &prefetch.Config{MaxDepth: 1, MaxObjects: 16},
	})
	owner, reader := c.Node(1), c.Node(0)
	childA, _ := owner.CreateObject(4096)
	childB, _ := owner.CreateObject(4096)
	root, _ := owner.CreateObject(8192)
	slot, _ := root.Alloc(16, 8)
	root.StoreRef(slot, childA.ID(), 0, object.FlagRead)
	root.StoreRef(slot+8, childB.ID(), 0, object.FlagRead)

	reader.Deref(object.Global{Obj: root.ID()})
	c.Run()
	if !reader.Store.Contains(childA.ID()) || !reader.Store.Contains(childB.ID()) {
		t.Fatal("children not prefetched")
	}
	if reader.Prefetch.Counters().Issued != 2 {
		t.Fatalf("prefetch counters = %+v", reader.Prefetch.Counters())
	}
}

func TestDerefAll(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	owner, reader := c.Node(1), c.Node(0)
	var refs []object.Global
	for i := 0; i < 4; i++ {
		o, _ := owner.CreateObject(4096)
		refs = append(refs, object.Global{Obj: o.ID()})
	}
	var got []*object.Object
	reader.DerefAll(refs).Then(func(objs []*object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got = objs
	})
	c.Run()
	if len(got) != 4 {
		t.Fatal("DerefAll incomplete")
	}
	for i, o := range got {
		if o == nil || o.ID() != refs[i].Obj {
			t.Fatalf("slot %d wrong", i)
		}
	}
	// Empty case runs synchronously.
	ran := false
	reader.DerefAll(nil).Then(func(objs []*object.Object, err error) { ran = err == nil && len(objs) == 0 })
	if !ran {
		t.Fatal("empty DerefAll")
	}
}

func TestDerefNilRef(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	var gotErr error
	c.Node(0).Deref(object.Global{}).Then(func(_ *object.Object, err error) { gotErr = err })
	if gotErr == nil {
		t.Fatal("nil ref accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() netsim.Time {
		c := newTestCluster(t, Config{Scheme: SchemeE2E, Seed: 33})
		owner, reader := c.Node(1), c.Node(0)
		o, _ := owner.CreateObject(64 << 10)
		reader.Deref(object.Global{Obj: o.ID()})
		c.Run()
		return c.Sim.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	owner, reader := c.Node(1), c.Node(0)
	o, _ := owner.CreateObject(4096)
	reader.Deref(object.Global{Obj: o.ID()})
	c.Run()
	tel := c.Telemetry()
	if tel.Value("net.frames_delivered") == 0 || tel.Value("switch.frames_in") == 0 {
		t.Fatalf("telemetry = %v", tel)
	}
	c.ResetStats()
	if tel := c.Telemetry(); tel.Value("net.frames_delivered") != 0 || tel.Value("switch.frames_in") != 0 {
		t.Fatal("ResetStats")
	}
}

func TestInvokeChainStagesFollowData(t *testing.T) {
	// A two-stage pipeline: stage 1's data lives on node 1, stage 2's
	// on node 2. Each stage should run where its data is, with only
	// the small intermediate result traveling.
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	driver := c.Node(0)
	driver.SetLoadProfile(0.5, 0)
	c.Node(1).SetLoadProfile(10, 0)
	c.Node(2).SetLoadProfile(10, 0)

	objA, _ := c.Node(1).CreateObject(512 << 10)
	offA, _ := objA.Alloc(8, 8)
	objA.PutUint64(offA, 40)
	objB, _ := c.Node(2).CreateObject(512 << 10)
	offB, _ := objB.Alloc(8, 8)
	objB.PutUint64(offB, 2)

	for _, nd := range c.Nodes {
		nd := nd
		nd.Registry.Register("stage", func(ctx *ExecCtx) {
			ctx.Node().Deref(ctx.Args[0]).Then(func(o *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				v, _ := o.Uint64(object.HeaderSize + object.FOTEntrySize*object.DefaultFOTCap)
				carry := uint64(0)
				if len(ctx.Param) >= 8 {
					carry = serde.NewDecoder(ctx.Param).Uint64()
				}
				e := serde.NewEncoder(16)
				e.PutUint64(carry + v)
				e.PutUint64(uint64(nd.Station)) // breadcrumb
				ctx.Return(e.Bytes())
			})
		})
	}
	code, _ := driver.CreateCodeObject("stage")
	codeRef := object.Global{Obj: code.ID()}
	steps := []ChainStep{
		{Code: codeRef, Args: []object.Global{{Obj: objA.ID()}},
			Opts: []InvokeOption{WithComputeWork(0.001), WithResultSize(16)}},
		{Code: codeRef, Args: []object.Global{{Obj: objB.ID()}},
			Opts: []InvokeOption{WithComputeWork(0.001), WithResultSize(16)}},
	}
	var results []InvokeResult
	var gotErr error
	driver.InvokeChain(steps, func(rs []InvokeResult, err error) { results, gotErr = rs, err })
	c.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Executor != 2 || results[1].Executor != 3 {
		t.Fatalf("executors = %v, %v — stages should follow their data",
			results[0].Executor, results[1].Executor)
	}
	d := serde.NewDecoder(results[1].Result)
	if sum := d.Uint64(); sum != 42 {
		t.Fatalf("chain sum = %d", sum)
	}
	// Neither big object moved.
	if driver.Store.Contains(objA.ID()) || driver.Store.Contains(objB.ID()) {
		t.Fatal("bulk data moved to the driver")
	}
}

func TestInvokeChainStepError(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	driver := c.Node(0)
	code, _ := driver.CreateCodeObject("missing-symbol")
	var gotErr error
	driver.InvokeChain([]ChainStep{
		{Code: object.Global{Obj: code.ID()}, Opts: []InvokeOption{WithExecutor(driver.Station)}},
	}, func(_ []InvokeResult, err error) { gotErr = err })
	c.Run()
	if !errors.Is(gotErr, ErrNoFunction) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestReplicaPromotionMasksFailure(t *testing.T) {
	// §5: masking failures via replication. A replica at node 2 is
	// promoted after node 1 (the home) dies; readers recover.
	c := newTestCluster(t, Config{
		Scheme:    SchemeE2E,
		Discovery: discovery.Config{Timeout: 300 * netsim.Microsecond},
	})
	home, replica, reader := c.Node(1), c.Node(2), c.Node(0)
	o, _ := home.CreateObject(4096)
	off, _ := o.AllocString("replicated")

	okRep := false
	c.ReplicateObject(o.ID(), replica, func(err error) { okRep = err == nil })
	c.Run()
	if !okRep || !replica.Store.Contains(o.ID()) {
		t.Fatal("replication failed")
	}

	// Home dies.
	c.Net.SetLinkDown(home.Host, 0, true)
	// Promote the replica and let readers rediscover.
	if err := c.PromoteReplica(o.ID(), replica); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := c.Locate(o.ID()); h != replica.Station {
		t.Fatal("metadata not updated after promotion")
	}
	reader.Resolver.Invalidate(o.ID()) // drop the stale cached location
	var got []byte
	var gotErr error
	reader.Coherence.ReadAt(o.ID(), off+8, 10).Then(func(b []byte, err error) {
		got, gotErr = append([]byte(nil), b...), err
	})
	c.Run()
	if gotErr != nil {
		t.Fatalf("read after promotion: %v", gotErr)
	}
	if string(got) != "replicated" {
		t.Fatalf("read = %q", got)
	}
	// Promotion is idempotent.
	if err := c.PromoteReplica(o.ID(), replica); err != nil {
		t.Fatal(err)
	}
	// Promoting where no replica exists fails.
	var unrelated oid.ID = c.NewID()
	if err := c.PromoteReplica(unrelated, reader); err == nil {
		t.Fatal("promotion without replica accepted")
	}
}

// TestPromotedStaleReplicaRegrantsTheFresherHolder: every invalidate to
// the replica at station 0 is lost, so it keeps the version station 2
// overwrote by its release, then the home dies and the replica is
// promoted (the injector picks the lowest surviving station). Station 2
// still holds its own released bytes; its next exclusive acquire offers
// them at their version, and must be granted the new home's bytes, not
// upgraded in place: the two copies would differ under one version.
func TestPromotedStaleReplicaRegrantsTheFresherHolder(t *testing.T) {
	c := newTestCluster(t, Config{
		Scheme:    SchemeE2E,
		Discovery: discovery.Config{Timeout: 300 * netsim.Microsecond},
	})
	replica, home, writer := c.Node(0), c.Node(1), c.Node(2)
	o, _ := home.CreateObject(4096)
	off, _ := o.AllocString("before the crash")
	obj := o.ID()
	c.ReplicateObject(obj, replica, func(error) {})
	c.Run()
	c.Net.SetFrameControlHook(func(_, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var m memproto.Msg
		lost := h.DecodeFrom(fr) == nil && h.Type == wire.MsgMem && h.Dst == replica.Station &&
			m.Unmarshal(fr[h.WireLen():]) == nil && m.Op == memproto.OpInvalidate
		return netsim.FrameControl{Drop: lost}
	})
	var relErr error
	writer.Coherence.AcquireExclusive(obj).Then(func(cp *object.Object, err error) {
		if relErr = err; err == nil {
			copy(cp.Bytes()[off+8:], "written by two")
			writer.Coherence.Release(obj).Then(func(_ struct{}, err error) { relErr = err })
		}
	})
	c.Run()
	c.Net.SetFrameControlHook(nil)
	stale, _ := replica.Store.Peek(obj)
	fresh, _ := writer.Store.Peek(obj)
	if relErr != nil || stale == nil || fresh == nil || stale.Version >= fresh.Version {
		t.Fatalf("release err %v; want the replica to keep an older version than station 2's", relErr)
	}
	c.CrashNode(1)
	if err := c.PromoteReplica(obj, replica); err != nil {
		t.Fatal(err)
	}
	writer.Resolver.Invalidate(obj)
	offered := fresh.Version
	var got *object.Object
	var err error
	writer.Coherence.AcquireExclusive(obj).Then(func(cp *object.Object, e error) { got, err = cp, e })
	c.Run()
	want, _ := replica.Store.Peek(obj)
	if err != nil || got == nil {
		t.Fatalf("acquire after promotion: %v", err)
	}
	if e, _ := writer.Store.Peek(obj); want.Version <= offered || e.Version != want.Version || !bytes.Equal(got.Bytes(), want.Obj.Bytes()) {
		t.Fatalf("station 2 holds version %d after offering %d, new home at %d; bytes equal: %v",
			e.Version, offered, want.Version, bytes.Equal(got.Bytes(), want.Obj.Bytes()))
	}
}

func TestNodeFailureAndRecovery(t *testing.T) {
	// §5: partial failure is inevitable. A dead owner makes accesses
	// fail cleanly (timeouts, not hangs); restoring the link restores
	// service without any reconfiguration.
	c := newTestCluster(t, Config{
		Scheme:    SchemeE2E,
		Discovery: discovery.Config{Timeout: 300 * netsim.Microsecond},
	})
	owner, reader := c.Node(1), c.Node(0)
	o, _ := owner.CreateObject(4096)
	off, _ := o.AllocString("survivor")

	// Warm: reader can reach it.
	okWarm := false
	reader.Coherence.ReadAt(o.ID(), off+8, 8).Then(func(_ []byte, err error) {
		okWarm = err == nil
	})
	c.Run()
	if !okWarm {
		t.Fatal("warm read failed")
	}

	// Owner's uplink dies.
	if !c.Net.SetLinkDown(owner.Host, 0, true) {
		t.Fatal("SetLinkDown failed")
	}
	var deadErr error
	got := false
	reader.Coherence.ReadAt(o.ID(), off+8, 8).Then(func(_ []byte, err error) {
		deadErr, got = err, true
	})
	c.Run()
	if !got {
		t.Fatal("access to dead node hung")
	}
	if deadErr == nil {
		t.Fatal("access to dead node succeeded")
	}

	// Link restored: the next access rediscovers and succeeds.
	c.Net.SetLinkDown(owner.Host, 0, false)
	var back []byte
	var backErr error
	reader.Coherence.ReadAt(o.ID(), off+8, 8).Then(func(b []byte, err error) {
		back, backErr = append([]byte(nil), b...), err
	})
	c.Run()
	if backErr != nil {
		t.Fatalf("post-recovery read: %v", backErr)
	}
	if string(back) != "survivor" {
		t.Fatalf("post-recovery read = %q", back)
	}
}

func TestLossResilientDeref(t *testing.T) {
	c := newTestCluster(t, Config{
		Scheme:    SchemeE2E,
		Seed:      11,
		Fabric:    netsim.FabricConfig{DropRate: 0.15},
		Discovery: discovery.Config{Retries: 10, Timeout: 500 * netsim.Microsecond},
	})
	owner, reader := c.Node(1), c.Node(0)
	o, _ := owner.CreateObject(32 << 10)
	done, failed := false, error(nil)
	reader.Deref(object.Global{Obj: o.ID()}).Then(func(_ *object.Object, err error) {
		done, failed = true, err
	})
	c.Run()
	if !done {
		t.Fatal("deref never completed under loss")
	}
	if failed != nil {
		t.Fatalf("deref failed under 15%% loss: %v", failed)
	}
}
