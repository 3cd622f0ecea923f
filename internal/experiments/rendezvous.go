package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/serde"
	"repro/internal/wire"
)

// RendezvousConfig parameterizes the Figure 1 strategy comparison.
type RendezvousConfig struct {
	Seed int64
}

// The Figure 1 task: a sparse model of rendezvousBuckets ×
// rendezvousDim (§2's global model shard), rendezvousActivationLen
// features per inference, and rendezvousComputeWork of abstract
// inference work for the cost model.
const (
	rendezvousBuckets       = 2000
	rendezvousDim           = 32
	rendezvousActivationLen = 32
	rendezvousComputeWork   = 0.01
)

// RendezvousRow is one strategy's outcome.
type RendezvousRow struct {
	Strategy     string
	Description  string
	CompletionUS float64
	KBMoved      float64
	Frames       uint64
	Executor     wire.StationID
	ResultOK     bool
}

func (r RendezvousRow) cells() []any {
	return []any{"strategy", r.Strategy, "completion_us", r.CompletionUS, "kb_moved", r.KBMoved,
		"frames", r.Frames, "executor", r.Executor, "result_ok", r.ResultOK}
}

// Rendezvous reproduces Figure 1: the same inference task (§2's
// Alice/Bob/Carol scenario) under
//
//	(1) manual copy        — Alice RPC-fetches the serialized model
//	    from Bob, then RPCs it to Carol with the activation;
//	(2) manual copy, optimized — Alice RPCs Carol, which pulls the
//	    serialized model from Bob itself;
//	(3) automatic copy     — Alice invokes a code reference over the
//	    model object; the system places the computation and the
//	    object moves as a byte copy on demand;
//	(4) Dave's local case (§5) — the invoker already holds a cached
//	    copy; the system runs the inference locally, which "could not
//	    be realized via any RPC mechanism".
func Rendezvous(cfg RendezvousConfig) ([]RendezvousRow, error) {
	m := model.NewRandom(cfg.Seed, rendezvousBuckets, rendezvousDim)
	activation := m.Features()[:rendezvousActivationLen]
	want := m.Infer(activation)

	return sweep([]string{"manual-copy", "manual-copy-optimized", "automatic-copy", "dave-local"},
		func(s string) (RendezvousRow, error) { return rendezvousStrategy(cfg, s, m, activation, want) })
}

// encodeActivation serializes an activation (by value — it is small,
// the part of the workload RPC is fine at).
func encodeActivation(features []uint64) []byte {
	e := serde.NewEncoder(8 * (len(features) + 1))
	e.PutUvarint(uint64(len(features)))
	for _, f := range features {
		e.PutUvarint(f)
	}
	return e.Bytes()
}

func decodeActivation(raw []byte) ([]uint64, error) {
	d := serde.NewDecoder(raw)
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("bad activation")
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.Uvarint()
	}
	return out, d.Err()
}

func encodeScore(v float64) []byte {
	e := serde.NewEncoder(8)
	e.PutFloat64(v)
	return e.Bytes()
}

func decodeScore(raw []byte) float64 {
	return serde.NewDecoder(raw).Float64()
}

// execDelay models inference compute time at a node.
func execDelay(n *core.Node, work float64) netsim.Duration {
	rate := n.ComputeRate * (1 - n.Load)
	if rate <= 0 {
		rate = 1e-6
	}
	return netsim.Duration(work / rate * float64(netsim.Second))
}

func rendezvousStrategy(cfg RendezvousConfig, strategy string, m *model.SparseModel,
	activation []uint64, want float64) (RendezvousRow, error) {

	numNodes := 3
	if strategy == "dave-local" {
		numNodes = 4
	}
	c, err := core.NewCluster(core.Config{
		Seed:     cfg.Seed,
		Scheme:   core.SchemeE2E,
		NumNodes: numNodes,
	})
	if err != nil {
		return RendezvousRow{}, err
	}
	alice, bob, carol := c.Node(0), c.Node(1), c.Node(2)
	alice.SetLoadProfile(1, 0)
	bob.SetLoadProfile(10, 0.95)
	carol.SetLoadProfile(10, 0)

	// The model lives on Bob in both representations: the heap form
	// serves the RPC baseline, the object form serves invocation.
	modelObj, err := model.BuildObject(c.NewID(), m)
	if err != nil {
		return RendezvousRow{}, err
	}
	if err := bob.AdoptObject(modelObj); err != nil {
		return RendezvousRow{}, err
	}
	marshaled := m.Marshal()

	// runModel deserializes a shipped model at nd, then infers over act.
	runModel := func(nd *core.Node, raw []byte, act []uint64, reply func([]byte, error)) {
		c.Sim.Schedule(cpuDelay(len(raw), DeserializeBytesPerSec), func() {
			mm, err := model.Unmarshal(raw)
			if err != nil {
				reply(nil, err)
				return
			}
			c.Sim.Schedule(execDelay(nd, rendezvousComputeWork), func() {
				reply(encodeScore(mm.Infer(act)), nil)
			})
		})
	}
	// Baseline RPC service surface (the "many RPC calls to implement
	// all the ways a programmer might wish to view data", §3.1).
	for _, nd := range c.Nodes {
		nd := nd
		// model.fetch: Bob serializes and returns the model.
		nd.RPCServer.RegisterAsync("model.fetch", func(_ []byte, reply func([]byte, error)) {
			c.Sim.Schedule(cpuDelay(len(marshaled), SerializeBytesPerSec), func() {
				reply(marshaled, nil)
			})
		})
		// model.run: deserialize the shipped model, then infer.
		nd.RPCServer.RegisterAsync("model.run", func(args []byte, reply func([]byte, error)) {
			d := serde.NewDecoder(args)
			raw := d.Bytes()
			act, aerr := decodeActivation(d.Bytes())
			if d.Err() != nil || aerr != nil {
				reply(nil, fmt.Errorf("bad model.run args"))
				return
			}
			runModel(nd, raw, act, reply)
		})
		// model.runpull: pull the model from the named station first
		// (strategy 2's "additional RPC on Carol", Figure 1).
		nd.RPCServer.RegisterAsync("model.runpull", func(args []byte, reply func([]byte, error)) {
			d := serde.NewDecoder(args)
			st := d.Uint64()
			src, actRaw := wire.StationID(st), d.Bytes()
			if d.Err() != nil || uint64(src) != st {
				reply(nil, fmt.Errorf("bad model.runpull args"))
				return
			}
			nd.RPCClient.Call(src, "model.fetch", nil, func(raw []byte, err error) {
				act, aerr := decodeActivation(actRaw)
				if err == nil {
					err = aerr
				}
				if err != nil {
					reply(nil, err)
					return
				}
				runModel(nd, raw, act, reply)
			})
		})
		// Data-centric code object target: infer over a model object
		// reference, loading by byte copy.
		nd.Registry.Register("model.infer", func(ctx *core.ExecCtx) {
			ctx.Node().Deref(ctx.Args[0]).Then(func(o *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				act, aerr := decodeActivation(ctx.Param)
				if aerr != nil {
					ctx.Fail(aerr)
					return
				}
				c.Sim.Schedule(cpuDelay(o.Size(), ByteCopyBytesPerSec), func() {
					v, verr := model.LoadView(o)
					if verr != nil {
						ctx.Fail(verr)
						return
					}
					c.Sim.Schedule(execDelay(nd, rendezvousComputeWork), func() {
						ctx.Return(encodeScore(v.Infer(act)))
					})
				})
			})
		})
	}
	c.Run()
	c.ResetStats()

	actBlob := encodeActivation(activation)
	start := c.Sim.Now()
	end := start
	var got float64
	var gotErr error
	var executor wire.StationID
	done := false
	finish := func(raw []byte, err error) {
		got, gotErr = decodeScore(raw), err
		if err != nil {
			got = math.NaN()
		}
		// Capture completion inside the callback: after Run() the
		// clock has advanced past stopped timeout timers.
		end = c.Sim.Now()
		done = true
	}
	// invoke has n run the inference over a reference to the model;
	// the system picks the executor.
	invoke := func(n *core.Node) error {
		code, err := n.CreateCodeObject("model.infer", modelObj.ID())
		if err != nil {
			return err
		}
		n.Invoke(object.Global{Obj: code.ID()}, []object.Global{{Obj: modelObj.ID()}},
			func(r core.InvokeResult, err error) {
				executor = r.Executor
				finish(r.Result, err)
			},
			core.WithParam(actBlob),
			core.WithComputeWork(rendezvousComputeWork), core.WithResultSize(16))
		return nil
	}

	switch strategy {
	case "manual-copy":
		// (1) Alice copies the data locally, forwards it to Carol,
		// then invokes — two full model transfers plus Alice's logic.
		executor = carol.Station
		alice.RPCClient.Call(bob.Station, "model.fetch", nil, func(raw []byte, err error) {
			if err != nil {
				finish(nil, err)
				return
			}
			e := serde.NewEncoder(len(raw) + len(actBlob) + 16)
			e.PutBytes(raw)
			e.PutBytes(actBlob)
			alice.RPCClient.Call(carol.Station, "model.run", e.Bytes(), finish)
		})
	case "manual-copy-optimized":
		// (2) Alice asks Carol to pull from Bob itself.
		executor = carol.Station
		e := serde.NewEncoder(len(actBlob) + 16)
		e.PutUint64(uint64(bob.Station))
		e.PutBytes(actBlob)
		alice.RPCClient.Call(carol.Station, "model.runpull", e.Bytes(), finish)
	case "automatic-copy":
		// (3) Alice names the computation and the data; the system
		// chooses the executor and moves bytes on demand.
		if err := invoke(alice); err != nil {
			return RendezvousRow{}, err
		}
	case "dave-local":
		// (4) Dave is a capable edge device already holding a cached
		// copy; the same Invoke now runs locally with no movement.
		dave := c.Node(3)
		// Dave is "equipped with the resources to do the work
		// locally" (§5).
		dave.SetLoadProfile(12, 0)
		warm := false
		dave.Deref(object.Global{Obj: modelObj.ID()}).Then(func(_ *object.Object, err error) {
			warm = err == nil
		})
		c.Run()
		if !warm {
			return RendezvousRow{}, fmt.Errorf("failed to warm Dave's cache")
		}
		c.ResetStats()
		start = c.Sim.Now()
		if err := invoke(dave); err != nil {
			return RendezvousRow{}, err
		}
	default:
		return RendezvousRow{}, fmt.Errorf("unknown strategy %q", strategy)
	}
	c.Run()
	if !done {
		return RendezvousRow{}, fmt.Errorf("strategy did not complete")
	}
	if gotErr != nil {
		return RendezvousRow{}, gotErr
	}

	tel := c.Telemetry()
	descriptions := map[string]string{
		"manual-copy":           "Fig 1(1): Alice fetches, forwards, invokes",
		"manual-copy-optimized": "Fig 1(2): Carol pulls from Bob on Alice's behalf",
		"automatic-copy":        "Fig 1(3): system placement + byte-copy movement",
		"dave-local":            "§5: capable invoker with cached copy runs locally",
	}
	return RendezvousRow{
		Strategy:     strategy,
		Description:  descriptions[strategy],
		CompletionUS: us(end.Sub(start)),
		KBMoved:      float64(tel.Value("net.bytes_delivered")) / 1024,
		Frames:       tel.Value("net.frames_delivered"),
		Executor:     executor,
		ResultOK:     math.Abs(got-want) < 1e-6,
	}, nil
}
