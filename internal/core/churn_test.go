package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
)

// TestRandomChurn drives a random interleaving of creates, reads,
// writes, and migrations across the cluster and checks after every
// operation that the data read back matches the latest write — the
// end-to-end consistency invariant under movement and caching.
func TestRandomChurn(t *testing.T) {
	for _, scheme := range []Scheme{SchemeE2E, SchemeController} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			churn(t, scheme, 400)
		})
	}
}

func churn(t *testing.T, scheme Scheme, ops int) {
	c := newTestCluster(t, Config{Scheme: scheme, Seed: 77})
	rng := rand.New(rand.NewSource(99))

	type tracked struct {
		id    oid.ID
		off   uint64 // payload slot
		value uint64 // last written value
		home  int    // node index
	}
	var objs []*tracked

	mkObject := func() {
		home := rng.Intn(len(c.Nodes))
		o, err := c.Nodes[home].CreateObject(4096)
		if err != nil {
			t.Fatal(err)
		}
		off, _ := o.Alloc(8, 8)
		v := rng.Uint64()
		o.PutUint64(off, v)
		objs = append(objs, &tracked{id: o.ID(), off: off, value: v, home: home})
	}
	for i := 0; i < 6; i++ {
		mkObject()
	}
	c.Run()

	enc := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}
	dec := func(b []byte) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		return v
	}

	for op := 0; op < ops; op++ {
		tr := objs[rng.Intn(len(objs))]
		node := c.Nodes[rng.Intn(len(c.Nodes))]
		switch rng.Intn(10) {
		case 0: // create another object
			if len(objs) < 24 {
				mkObject()
				c.Run()
			}
		case 1, 2: // migrate to a random node
			dst := rng.Intn(len(c.Nodes))
			if dst == tr.home {
				break
			}
			if err := c.MoveObject(tr.id, c.Nodes[tr.home], c.Nodes[dst]); err != nil {
				t.Fatalf("op %d: move: %v", op, err)
			}
			tr.home = dst
		case 3, 4, 5: // write through a random node
			v := rng.Uint64()
			done := false
			node.Coherence.WriteAt(tr.id, tr.off, enc(v)).Then(func(_ struct{}, err error) {
				if err != nil {
					t.Fatalf("op %d: write: %v", op, err)
				}
				done = true
			})
			c.Run()
			if !done {
				t.Fatalf("op %d: write stalled", op)
			}
			tr.value = v
		default: // read through a random node
			var got uint64
			done := false
			node.Coherence.ReadAt(tr.id, tr.off, 8).Then(func(b []byte, err error) {
				if err != nil {
					t.Fatalf("op %d: read %s: %v", op, tr.id.Short(), err)
				}
				got = dec(b)
				done = true
			})
			c.Run()
			if !done {
				t.Fatalf("op %d: read stalled", op)
			}
			if got != tr.value {
				t.Fatalf("op %d: read %d, want %d (object %s at node %d)",
					op, got, tr.value, tr.id.Short(), tr.home)
			}
		}
	}

	// Final sweep: every object readable from every node with the
	// last-written value.
	for _, tr := range objs {
		for ni, node := range c.Nodes {
			var got uint64
			done := false
			node.Coherence.ReadAt(tr.id, tr.off, 8).Then(func(b []byte, err error) {
				if err != nil {
					t.Fatalf("final read from node %d: %v", ni, err)
				}
				got = dec(b)
				done = true
			})
			c.Run()
			if !done || got != tr.value {
				t.Fatalf("final: node %d sees %d, want %d", ni, got, tr.value)
			}
		}
	}
}

// TestChurnWithCaching repeats the churn with whole-object caching
// (Deref) in the mix: cached copies must be invalidated by writes.
func TestChurnWithCaching(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E, Seed: 31})
	rng := rand.New(rand.NewSource(13))
	owner := c.Node(1)
	o, _ := owner.CreateObject(4096)
	off, _ := o.Alloc(8, 8)
	var want uint64
	o.PutUint64(off, want)

	enc := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}

	for op := 0; op < 150; op++ {
		node := c.Nodes[rng.Intn(len(c.Nodes))]
		if rng.Intn(2) == 0 {
			// Cache the whole object somewhere, then verify its
			// contents match the latest write.
			done := false
			node.Deref(object.Global{Obj: o.ID()}).Then(func(obj *object.Object, err error) {
				if err != nil {
					t.Fatalf("op %d: deref: %v", op, err)
				}
				got, _ := obj.Uint64(off)
				if got != want {
					t.Fatalf("op %d: cached copy has %d, want %d", op, got, want)
				}
				done = true
			})
			c.Run()
			if !done {
				t.Fatalf("op %d stalled", op)
			}
		} else {
			want = rng.Uint64()
			done := false
			node.Coherence.WriteAt(o.ID(), off, enc(want)).Then(func(_ struct{}, err error) {
				if err != nil {
					t.Fatalf("op %d: write: %v", op, err)
				}
				done = true
			})
			c.Run()
			if !done {
				t.Fatalf("op %d stalled", op)
			}
		}
	}
}

// TestHostileFramesDoNotCrashNodes blasts every node with random
// garbage frames between legitimate operations.
func TestHostileFramesDoNotCrashNodes(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	owner, reader := c.Node(1), c.Node(0)
	o, _ := owner.CreateObject(4096)
	off, _ := o.AllocString("still alive")

	for round := 0; round < 20; round++ {
		// Garbage of random lengths, including valid-magic prefixes.
		for i := 0; i < 10; i++ {
			n := rng.Intn(200)
			fr := make(netsim.Frame, n)
			rng.Read(fr)
			if n >= 2 && rng.Intn(2) == 0 {
				fr[0], fr[1] = 0x6A, 0x50 // wire.Magic
			}
			c.Nodes[rng.Intn(len(c.Nodes))].Host.Send(fr)
		}
		c.Run()
		// A real operation still works.
		var got string
		reader.Coherence.ReadAt(o.ID(), off+8, 11).Then(func(b []byte, err error) {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			got = string(b)
		})
		c.Run()
		if got != "still alive" {
			t.Fatalf("round %d: read %q", round, got)
		}
	}
}

// TestManyObjectsManyNodes scales the population up on a larger
// cluster (9 nodes across the default 3 leaves).
func TestManyObjectsManyNodes(t *testing.T) {
	c := newTestCluster(t, Config{Scheme: SchemeE2E, Seed: 8, NumNodes: 9})
	if len(c.Nodes) != 9 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	var refs []object.Global
	for i := 0; i < 90; i++ {
		o, err := c.Nodes[i%9].CreateObject(2048)
		if err != nil {
			t.Fatal(err)
		}
		off, _ := o.AllocString(fmt.Sprintf("obj-%d", i))
		refs = append(refs, object.Global{Obj: o.ID(), Off: off})
	}
	c.Run()
	// Every node reads every 9th object.
	for ni, node := range c.Nodes {
		for i := ni; i < len(refs); i += 9 {
			i := i
			node.Coherence.ReadAt(refs[i].Obj, refs[i].Off+8, 5).Then(func(b []byte, err error) {
				if err != nil {
					t.Fatalf("node %d obj %d: %v", ni, i, err)
				}
			})
		}
	}
	c.Run()
}
