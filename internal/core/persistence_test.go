package core

import (
	"bytes"
	"testing"

	"repro/internal/object"
)

// TestStoreSnapshotSurvivesReboot exercises orthogonal persistence at
// the system level (§3.1): a node's entire store is snapshotted,
// a *fresh* cluster is built (new simulator, new switches, new hosts —
// a reboot), the snapshot is loaded into the corresponding node, and
// every object, cross-object reference, and remote access works
// without any fixup.
func TestStoreSnapshotSurvivesReboot(t *testing.T) {
	// --- First life: build state on node 1.
	c1 := newTestCluster(t, Config{Scheme: SchemeE2E, Seed: 101})
	owner := c1.Node(1)

	detail, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	detailOff, _ := detail.AllocString("deep detail")
	root, err := owner.CreateObject(4096)
	if err != nil {
		t.Fatal(err)
	}
	slot, _ := root.Alloc(8, 8)
	if err := root.StoreRef(slot, detail.ID(), detailOff, object.FlagRead); err != nil {
		t.Fatal(err)
	}
	rootOff, _ := root.AllocString("root payload")
	c1.Run()

	var snap bytes.Buffer
	if err := owner.Store.SaveTo(&snap); err != nil {
		t.Fatal(err)
	}

	// --- Reboot: a brand-new cluster; node 1 restores its store and
	// re-announces its objects.
	c2 := newTestCluster(t, Config{Scheme: SchemeE2E, Seed: 202})
	restored := c2.Node(1)
	n, err := restored.Store.LoadFrom(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d objects", n)
	}
	for _, id := range restored.Store.HomeList() {
		restored.Resolver.Announce(id)
		e, _ := restored.Store.Peek(id)
		c2.registerMeta(id, e.Obj.Size(), restored.Station)
	}

	// A different node reads the root payload and then follows the
	// cross-object reference — both across the new network.
	reader := c2.Node(0)
	var rootObj *object.Object
	reader.Deref(object.Global{Obj: root.ID()}).Then(func(o *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rootObj = o
	})
	c2.Run()
	if rootObj == nil {
		t.Fatal("root unreachable after reboot")
	}
	if s, _ := rootObj.LoadString(rootOff); s != "root payload" {
		t.Fatalf("root payload = %q", s)
	}
	ref, err := rootObj.LoadRef(slot)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Obj != detail.ID() || ref.Off != detailOff {
		t.Fatalf("reference corrupted across reboot: %v", ref)
	}
	var got string
	reader.Deref(ref).Then(func(o *object.Object, err error) {
		if err != nil {
			t.Fatal(err)
		}
		got, _ = o.LoadString(ref.Off)
	})
	c2.Run()
	if got != "deep detail" {
		t.Fatalf("followed reference = %q", got)
	}
}
