package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/object"
)

// TestReferenceWithoutReadPrivilege exercises §1's third motivating
// case: Alice passes a reference to data she cannot read; the system
// runs the computation at a node that can, and Alice receives only the
// (derived) result.
func TestReferenceWithoutReadPrivilege(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	alice, bob, carol := c.Node(0), c.Node(1), c.Node(2)

	// Bob's confidential object: only Carol may read it.
	secret, err := bob.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := secret.AllocString("classified: the answer is 42")
	if err := bob.RestrictReaders(secret.ID(), carol.Station); err != nil {
		t.Fatal(err)
	}

	// Alice cannot read it directly…
	var directErr error
	got := false
	alice.Coherence.ReadAt(secret.ID(), off+8, 10).Then(func(_ []byte, err error) {
		directErr, got = err, true
	})
	c.Run()
	if !got || directErr == nil {
		t.Fatalf("direct read by Alice: got=%v err=%v", got, directErr)
	}
	if !strings.Contains(directErr.Error(), "denied") {
		t.Fatalf("err = %v, want denial", directErr)
	}
	// …and cannot cache a copy either.
	var derefErr error
	alice.Deref(object.Global{Obj: secret.ID()}).Then(func(_ *object.Object, err error) { derefErr = err })
	c.Run()
	if derefErr == nil {
		t.Fatal("Alice acquired a restricted object")
	}

	// But she can pass the reference into a computation. The code
	// extracts only a derived answer; it is forced to Carol (the
	// reader) here — a production placement engine would incorporate
	// ACLs into the candidate filter.
	for _, nd := range c.Nodes {
		nd.Registry.Register("extract", func(ctx *ExecCtx) {
			ctx.Node().Deref(ctx.Args[0]).Then(func(o *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				s, _ := o.LoadString(off)
				var answer int
				fmt.Sscanf(s[strings.LastIndex(s, " ")+1:], "%d", &answer)
				ctx.Return([]byte(fmt.Sprintf("%d", answer)))
			})
		})
	}
	code, _ := alice.CreateCodeObject("extract", secret.ID())
	var res InvokeResult
	var invErr error
	alice.Invoke(object.Global{Obj: code.ID()}, []object.Global{{Obj: secret.ID()}},
		func(r InvokeResult, err error) { res, invErr = r, err },
		WithExecutor(carol.Station))
	c.Run()
	if invErr != nil {
		t.Fatal(invErr)
	}
	if string(res.Result) != "42" {
		t.Fatalf("result = %q", res.Result)
	}
	// The secret itself never reached Alice.
	if alice.Store.Contains(secret.ID()) {
		t.Fatal("restricted object leaked to Alice's store")
	}
	// Carol (permitted) holds a copy from the dereference.
	if !carol.Store.Contains(secret.ID()) {
		t.Fatal("Carol should have dereferenced the object")
	}
	if bob.Coherence.Counters().DeniedServed == 0 {
		t.Fatal("no denials recorded at the home")
	}
}

func TestRestrictReadersValidation(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E})
	owner, other := c.Node(0), c.Node(1)
	o, _ := owner.CreateObject(4096)
	// Only the home may set ACLs.
	if err := other.RestrictReaders(o.ID(), other.Station); err == nil {
		t.Fatal("non-home set an ACL")
	}
	// Unknown object.
	if err := owner.RestrictReaders(c.NewID()); err == nil {
		t.Fatal("ACL on unknown object accepted")
	}
	// Restore world-readability.
	if err := owner.RestrictReaders(o.ID(), other.Station); err != nil {
		t.Fatal(err)
	}
	if err := owner.RestrictReaders(o.ID()); err != nil {
		t.Fatal(err)
	}
	okRead := false
	c.Node(2).Coherence.ReadAt(o.ID(), object.HeaderSize, 4).Then(func(_ []byte, err error) { okRead = err == nil })
	c.Run()
	if !okRead {
		t.Fatal("world-readability not restored")
	}
}
