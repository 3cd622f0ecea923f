package workload

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/object"
)

// ClusterConfig shapes the object population a ClusterTarget drives.
type ClusterConfig struct {
	// WarmPool is the number of pre-discovered objects (default 64),
	// homed round-robin on the non-driver nodes (node 0 drives).
	WarmPool int
	// ColdPool is the number of never-discovered single-use objects
	// cold ops consume (default 0). When exhausted, cold ops fall back
	// to the warm pool and ColdExhausted counts the shortfall.
	ColdPool int
}

func (c *ClusterConfig) fill() {
	if c.WarmPool <= 0 {
		c.WarmPool = 64
	}
}

// TargetCounters tallies target-side activity.
type TargetCounters struct {
	// CoherenceOps / CoherenceErrs count every coherence-layer
	// operation completion observed at the driver (via the coherence
	// engine's per-op completion hook) — acquire-release ops complete
	// two, reads and writes one each.
	CoherenceOps  uint64
	CoherenceErrs uint64
	// ColdExhausted counts cold ops that fell back to warm objects
	// because the cold pool ran out.
	ColdExhausted uint64
}

// ClusterTarget adapts a core.Cluster to the runner's Target
// interface: one driver node issues reads, writes, acquire-release
// pairs, and invokes against a pool of objects homed on the other
// nodes, through the coherence engine's futures API.
type ClusterTarget struct {
	cl       *core.Cluster
	driver   *core.Node
	warm     []object.Global
	cold     []object.Global
	coldNext int
	code     object.Global
	writeBuf []byte
	counters TargetCounters
}

// noopSymbol is the registered function invoke ops run: placement
// routes it to the data's home, so the op cost is pure dispatch.
const noopSymbol = "workload.noop"

// Every workload data object is objectSize bytes with a small FOT of
// dataFOTCap entries, so most of it is payload: an acquire moves 512
// bytes, not 1.5KB of empty default FOT. Each read or write moves
// ioSize bytes.
const (
	objectSize = 512
	dataFOTCap = 4
	ioSize     = 64
)

// ioOff is where reads and writes land: the start of a data object's
// heap, past the header and FOT so raw writes never clobber object
// metadata.
const ioOff = object.HeaderSize + object.FOTEntrySize*dataFOTCap

// NewClusterTarget builds the object population: warm and cold pools
// homed round-robin on the non-driver nodes, plus one code object.
// Call Warm before starting the runner.
func NewClusterTarget(cl *core.Cluster, cfg ClusterConfig) (t *ClusterTarget, err error) {
	// Population setup mutates node stores; under realnet that must be
	// serialized with socket upcalls (inline no-op under the sim).
	cl.Exec(func() { t, err = newClusterTarget(cl, cfg) })
	return t, err
}

func newClusterTarget(cl *core.Cluster, cfg ClusterConfig) (*ClusterTarget, error) {
	cfg.fill()
	t := &ClusterTarget{
		cl:       cl,
		driver:   cl.Node(0),
		writeBuf: make([]byte, ioSize),
	}
	for i := range t.writeBuf {
		t.writeBuf[i] = byte(i)
	}
	homes := cl.Nodes[1:]
	if len(homes) == 0 { // single-node cluster: everything is local
		homes = []*core.Node{t.driver}
	}
	alloc := func(n int) ([]object.Global, error) {
		objs, err := populate(homes, n, objectSize, dataFOTCap)
		gs := make([]object.Global, len(objs))
		for i, o := range objs {
			gs[i] = object.Global{Obj: o.ID()}
		}
		return gs, err
	}
	var err error
	if t.warm, err = alloc(cfg.WarmPool); err != nil {
		return nil, err
	}
	if t.cold, err = alloc(cfg.ColdPool); err != nil {
		return nil, err
	}
	codeObj, err := homes[0].CreateCodeObject(noopSymbol)
	if err != nil {
		return nil, err
	}
	t.code = object.Global{Obj: codeObj.ID()}
	cl.RegisterAll(noopSymbol, func(ctx *core.ExecCtx) { ctx.Return(nil) })
	return t, nil
}

// Warm pre-discovers the warm pool and the code object from the
// driver (a 1-byte read resolves and caches each home), drains the
// simulation, then installs the per-op completion observer — warmup
// traffic stays out of the counters. Cold-pool objects are left
// untouched so their first access pays full discovery. It returns the
// first read's error: an unwarmed pool would measure discovery.
func (t *ClusterTarget) Warm() error {
	var first error
	for _, g := range slices.Concat(t.warm, []object.Global{t.code}) {
		t.driver.Coherence.ReadAt(g.Obj, ioOff, 1).Then(func(_ []byte, err error) { first = cmp.Or(first, err) })
	}
	t.cl.Run()
	t.driver.Coherence.AddOpObserver(func(_ string, err error) {
		t.counters.CoherenceOps++
		if err != nil {
			t.counters.CoherenceErrs++
		}
	})
	return first
}

// obj picks the op's object: cold ops consume the cold pool once,
// warm ops hash the key into the warm pool.
func (t *ClusterTarget) obj(op Op) object.Global {
	if op.Cold {
		if t.coldNext < len(t.cold) {
			g := t.cold[t.coldNext]
			t.coldNext++
			return g
		}
		t.counters.ColdExhausted++
	}
	return t.warm[op.Key%len(t.warm)]
}

// Issue starts one operation through the futures API; done fires when
// the driver learns the outcome.
func (t *ClusterTarget) Issue(op Op, done func(error)) {
	g := t.obj(op)
	coh := t.driver.Coherence
	switch op.Kind {
	case OpWrite:
		coh.WriteAt(g.Obj, ioOff, t.writeBuf).Then(
			func(_ struct{}, err error) { done(err) })
	case OpAcquireRelease:
		coh.AcquireExclusive(g.Obj).Then(func(_ *object.Object, err error) {
			if err != nil {
				done(err)
				return
			}
			coh.Release(g.Obj).Then(func(_ struct{}, err error) { done(err) })
		})
	case OpInvoke:
		t.driver.Invoke(t.code, []object.Global{g},
			func(_ core.InvokeResult, err error) { done(err) })
	default: // OpRead
		coh.ReadAt(g.Obj, ioOff, ioSize).Then(
			func(_ []byte, err error) { done(err) })
	}
}
