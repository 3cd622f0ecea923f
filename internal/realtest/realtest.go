// Package realtest is a localhost test harness for the realnet
// backend, in the style of database clustertest helpers: a test asks
// for a cluster, gets real UDP sockets wired into the identical
// coherence/discovery stack, and the harness owns lifecycle (cleanup
// via t.Cleanup), deadlines, and fatal-on-error plumbing so tests
// read as straight-line scenarios.
//
//	c := realtest.NewCluster(t, core.Config{NumNodes: 4})
//	g := c.CreateObject(1, 4096)
//	c.WriteAt(0, g, object.HeaderSize, []byte("hi"))
//	got := c.ReadAt(2, g, object.HeaderSize, 2)
package realtest

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/future"
	"repro/internal/object"
)

// DefaultTimeout bounds every await the harness performs. Loopback
// RTTs are tens of microseconds; anything near this bound is a hang,
// not a slow network.
const DefaultTimeout = 15 * time.Second

// Cluster wraps a realnet-backed core.Cluster with the owning test.
type Cluster struct {
	*core.Cluster
	tb testing.TB
}

// NewCluster builds cfg as a realnet cluster on loopback sockets —
// whatever cfg.Backend says — and registers its teardown with
// t.Cleanup.
func NewCluster(tb testing.TB, cfg core.Config) *Cluster {
	tb.Helper()
	cfg.Backend = core.BackendRealnet
	cl, err := core.NewCluster(cfg)
	if err != nil {
		tb.Fatalf("realtest: cluster: %v", err)
	}
	tb.Cleanup(func() { cl.Close() })
	return &Cluster{Cluster: cl, tb: tb}
}

// ctx returns the harness deadline context.
func (c *Cluster) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), DefaultTimeout)
}

// Await resolves f under the harness deadline, failing the test on
// error. Package-level because Go methods cannot be generic.
func Await[T any](c *Cluster, f *future.Future[T]) T {
	c.tb.Helper()
	ctx, cancel := c.ctx()
	defer cancel()
	v, err := core.Await(ctx, c.Cluster, f)
	if err != nil {
		c.tb.Fatalf("realtest: await: %v", err)
	}
	return v
}

// CreateObject creates an object homed on the given node and returns
// its global reference.
func (c *Cluster) CreateObject(node, size int) object.Global {
	c.tb.Helper()
	var g object.Global
	c.Exec(func() {
		o, err := c.Node(node).CreateObject(size)
		if err != nil {
			c.tb.Fatalf("realtest: create on node %d: %v", node, err)
		}
		g = object.Global{Obj: o.ID()}
	})
	return g
}

// ReadAt reads length bytes of g from the given node over the sockets.
func (c *Cluster) ReadAt(node int, g object.Global, off uint64, length int) []byte {
	c.tb.Helper()
	var f *future.Future[[]byte]
	c.Exec(func() { f = c.Node(node).Coherence.ReadAt(g.Obj, off, length) })
	return Await(c, f)
}
