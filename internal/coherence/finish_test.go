package coherence

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/trace"
	"repro/internal/wire"
)

// opProbe issues public operations and records how each one ends: its
// callbacks, the observer fires around them, and (under a recorder that
// samples every op) its root span.
type opProbe struct {
	c   *cluster
	rec *trace.Recorder
	log []string // "obs <name> <err>" and "cb <name> <err>", in order
	ops []*probeOp
	// traced maps each op record's trace ID to its kind's root span name.
	traced map[uint64]string
}

type probeOp struct {
	name  string
	want  string // "" for success, else a substring of the error
	calls int
	err   error
	at    netsim.Time // when the callback ran
}

var rootNames = map[string]string{
	"acquire_shared": "op:acquire-shared", "acquire_exclusive": "op:acquire-excl",
	"read": "op:read", "write": "op:write", "release": "op:release",
}

func newOpProbe(c *cluster) *opProbe {
	p := &opProbe{c: c, rec: trace.NewRecorder(c.sim, trace.Config{SampleEvery: 1}), traced: map[uint64]string{}}
	for _, nd := range c.nodes {
		nd.coh.SetTracer(p.rec)
		nd.coh.AddObserver(func(r Record) {
			if r.Kind < RecPublish {
				p.log = append(p.log, fmt.Sprintf("obs %s %v", r.Kind, r.Err))
				p.traced[r.Trace] = rootNames[r.Kind.String()]
			}
		})
	}
	return p
}

// issue registers an op about to start and returns its completion.
func (p *opProbe) issue(name, want string) func(error) {
	o := &probeOp{name: name, want: want}
	p.ops = append(p.ops, o)
	return func(err error) {
		o.calls++
		o.err, o.at = err, p.c.sim.Now()
		p.log = append(p.log, fmt.Sprintf("cb %s %v", name, err))
	}
}

func (p *opProbe) acquireShared(nd *tnode, obj oid.ID, want string) {
	done := p.issue("acquire_shared", want)
	nd.coh.AcquireShared(obj).Then(func(_ *object.Object, err error) { done(err) })
}

func (p *opProbe) acquireExclusive(nd *tnode, obj oid.ID, want string) {
	done := p.issue("acquire_exclusive", want)
	nd.coh.AcquireExclusive(obj).Then(func(_ *object.Object, err error) { done(err) })
}

func (p *opProbe) read(nd *tnode, obj oid.ID, want string) {
	done := p.issue("read", want)
	nd.coh.ReadAt(obj, object.HeaderSize, 8).Then(func(_ []byte, err error) { done(err) })
}

func (p *opProbe) write(nd *tnode, obj oid.ID, off uint64, want string) {
	done := p.issue("write", want)
	nd.coh.WriteAt(obj, off, []byte("written!")).Then(func(_ struct{}, err error) { done(err) })
}

func (p *opProbe) release(nd *tnode, obj oid.ID, want string) {
	done := p.issue("release", want)
	nd.coh.Release(obj).Then(func(_ struct{}, err error) { done(err) })
}

// check asserts that every op finished once: its callback ran once with
// the expected outcome, right after one observer fire with its name and
// error, and its root span had ended, recording that error, when the
// callback ran.
func (p *opProbe) check(t *testing.T) {
	t.Helper()
	for i, o := range p.ops {
		switch {
		case o.calls != 1:
			t.Errorf("op %d (%s): callback ran %d times", i, o.name, o.calls)
		case o.want == "" && o.err != nil, o.want != "" && (o.err == nil || !strings.Contains(o.err.Error(), o.want)):
			t.Errorf("op %d (%s): err %v, want %q", i, o.name, o.err, o.want)
		}
	}
	if len(p.log) != 2*len(p.ops) {
		t.Errorf("%d events for %d ops: %q", len(p.log), len(p.ops), p.log)
	}
	for i := 0; i+1 < len(p.log); i += 2 {
		if obs, cb := p.log[i], p.log[i+1]; !strings.HasPrefix(obs, "obs ") || cb != "cb "+obs[4:] {
			t.Errorf("events %d–%d are %q, %q: want one observer fire, then its callback", i, i+1, obs, cb)
		}
	}
	var roots []*trace.Span
	for _, sp := range p.rec.Spans() {
		if sp.Kind == trace.KindOp {
			roots = append(roots, sp)
		}
	}
	if len(roots) != len(p.ops) {
		t.Fatalf("%d root spans for %d ops", len(roots), len(p.ops))
	}
	for _, sp := range roots {
		if name, ok := p.traced[sp.Trace]; !ok || name != sp.Name {
			t.Errorf("root span %s (trace %d): the op record naming its trace is a %q op", sp.Name, sp.Trace, name)
		}
	}
	// End is idempotent: a late End moves the finish of a span nobody
	// ended, and only of such a span.
	p.c.sim.RunUntil(p.c.sim.Now().Add(netsim.Millisecond))
	for i, sp := range roots {
		sp.End()
		o := p.ops[i]
		var errs []string
		for _, a := range sp.Attrs {
			if a.Key == "error" {
				errs = append(errs, a.Val)
			}
		}
		switch {
		case sp.Name != rootNames[o.name]:
			t.Errorf("root span %d is %s, op %d is %s", i, sp.Name, i, o.name)
		case sp.Finish != o.at:
			t.Errorf("op %d (%s): root span ended at %v, callback ran at %v", i, o.name, sp.Finish, o.at)
		case o.err == nil && len(errs) != 0, o.err != nil && (len(errs) != 1 || errs[0] != o.err.Error()):
			t.Errorf("op %d (%s): root span errors %q, op error %v", i, o.name, errs, o.err)
		}
	}
}

func TestEveryOpFinishesOnce(t *testing.T) {
	// Node 1 is the object's home throughout unless a case moves it.
	type fixture struct {
		c   *cluster
		obj oid.ID
		off uint64
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, f fixture)
		run   func(p *opProbe, f fixture)
		after func(t *testing.T, f fixture)
	}{{
		name: "local hit",
		setup: func(t *testing.T, f fixture) {
			f.c.nodes[2].coh.AcquireShared(f.obj)
			f.c.sim.Run()
		},
		run: func(p *opProbe, f fixture) {
			cached, home := f.c.nodes[2], f.c.nodes[1]
			p.acquireShared(cached, f.obj, "")
			p.read(cached, f.obj, "")
			p.acquireShared(home, f.obj, "")
			p.acquireExclusive(home, f.obj, "")
			p.read(home, f.obj, "")
			p.write(home, f.obj, f.off, "")
			p.release(home, f.obj, "")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			if h, c := f.c.nodes[1].coh.Counters().LocalHits, f.c.nodes[2].coh.Counters().LocalHits; h != 4 || c != 2 {
				t.Errorf("local hits: home %d, cached %d; want 4 (a home release is none), 2", h, c)
			}
		},
	}, {
		name: "remote success",
		run: func(p *opProbe, f fixture) {
			p.read(f.c.nodes[0], f.obj, "")
			p.write(f.c.nodes[0], f.obj, f.off, "")
			p.acquireShared(f.c.nodes[2], f.obj, "")
			f.c.sim.Run()
			p.acquireExclusive(f.c.nodes[2], f.obj, "")
			f.c.sim.Run()
			p.release(f.c.nodes[2], f.obj, "")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			if got := f.c.nodes[2].coh.Counters().RemoteAcquires; got != 2 {
				t.Errorf("RemoteAcquires = %d, want 2", got)
			}
		},
	}, {
		name: "shared on shared",
		run: func(p *opProbe, f fixture) {
			p.acquireShared(f.c.nodes[0], f.obj, "")
			p.acquireShared(f.c.nodes[0], f.obj, "")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			if got := f.c.nodes[0].coh.Counters().RemoteAcquires; got != 1 {
				t.Errorf("RemoteAcquires = %d, want 1 (coalesced)", got)
			}
		},
	}, {
		name: "exclusive on exclusive",
		run: func(p *opProbe, f fixture) {
			p.acquireExclusive(f.c.nodes[0], f.obj, "")
			p.acquireExclusive(f.c.nodes[0], f.obj, "")
			f.c.sim.Run()
			p.release(f.c.nodes[0], f.obj, "")
			p.release(f.c.nodes[0], f.obj, "")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			n := f.c.nodes[0].coh
			if got := n.Counters().RemoteAcquires; got != 1 || n.leases[f.obj] != 0 {
				t.Errorf("RemoteAcquires = %d, leases = %d; want 1 (coalesced), 0", got, n.leases[f.obj])
			}
		},
	}, {
		name: "exclusive behind shared",
		setup: func(t *testing.T, f fixture) {
			// Node 2 learns the home first: a copy holder answers discovery
			// too, and only the home grants.
			f.c.nodes[2].coh.ReadAt(f.obj, object.HeaderSize, 8)
			f.c.sim.Run()
			f.c.nodes[0].coh.AcquireShared(f.obj)
			f.c.sim.Run()
		},
		run: func(p *opProbe, f fixture) {
			p.acquireShared(f.c.nodes[2], f.obj, "")
			p.acquireExclusive(f.c.nodes[2], f.obj, "")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			if got := f.c.nodes[2].coh.GrantedPerm(f.obj); got != memproto.PermExclusive || f.c.nodes[0].st.Contains(f.obj) {
				t.Errorf("GrantedPerm = %v, other copy held: %v; want exclusive, false", got, f.c.nodes[0].st.Contains(f.obj))
			}
		},
	}, {
		name: "stale location retry",
		setup: func(t *testing.T, f fixture) {
			f.c.nodes[0].coh.ReadAt(f.obj, object.HeaderSize, 8)
			f.c.sim.Run()
			f.c.move(t, f.obj, 1, 2)
		},
		run: func(p *opProbe, f fixture) {
			p.read(f.c.nodes[0], f.obj, "")
			p.acquireShared(f.c.nodes[0], f.obj, "")
			p.write(f.c.nodes[0], f.obj, f.off, "")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			if got := f.c.nodes[0].coh.Counters().StaleRetries; got != 3 {
				t.Errorf("StaleRetries = %d, want one per op", got)
			}
		},
	}, {
		name: "denied",
		setup: func(t *testing.T, f fixture) {
			if err := f.c.nodes[1].st.SetReaders(f.obj, []wire.StationID{f.c.nodes[2].ep.Station()}); err != nil {
				t.Fatal(err)
			}
		},
		run: func(p *opProbe, f fixture) {
			p.read(f.c.nodes[0], f.obj, "denied")
			p.acquireShared(f.c.nodes[0], f.obj, "denied")
			p.acquireExclusive(f.c.nodes[0], f.obj, "denied")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			// The exclusive acquire waited on the shared fetch, then ran
			// its own.
			if got := f.c.nodes[1].coh.Counters().DeniedServed; got != 3 {
				t.Errorf("DeniedServed = %d, want 3", got)
			}
		},
	}, {
		name: "resolve failure, two waiters",
		run: func(p *opProbe, f fixture) {
			missing := gen.New()
			p.acquireShared(f.c.nodes[0], missing, "not found")
			p.acquireShared(f.c.nodes[0], missing, "not found")
			p.read(f.c.nodes[0], missing, "not found")
			f.c.sim.Run()
		},
		after: func(t *testing.T, f fixture) {
			if got := f.c.nodes[0].coh.Counters().RemoteAcquires; got != 1 {
				t.Errorf("RemoteAcquires = %d, want 1 (coalesced)", got)
			}
		},
	}, {
		name: "release with no copy",
		run: func(p *opProbe, f fixture) {
			p.release(f.c.nodes[0], f.obj, "not found")
			f.c.sim.Run()
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 3)
			o, off := c.makeObject(t, 1, 4096, "finish once")
			f := fixture{c: c, obj: o.ID(), off: off + 8}
			if tc.setup != nil {
				tc.setup(t, f)
			}
			p := newOpProbe(c)
			tc.run(p, f)
			p.check(t)
			if tc.after != nil {
				tc.after(t, f)
			}
		})
	}
}
