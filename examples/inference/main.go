// Inference: the paper's §2 motivating scenario, end to end.
//
// A sparse global model is partitioned across objects on cloud node
// Bob. Edge device Alice holds an activation and wants a
// classification:
//
//   - Bob is overloaded and Carol is idle, so the system rendezvouses
//     the code with the needed model shard at Carol (Figure 1, part 3);
//
//   - the root object's Foreign Object Table is a reachability graph,
//     so the prefetcher pulls shards ahead of use;
//
//   - Dave, a capable edge device with a cached shard, runs the same
//     invocation locally — "could not be realized via any RPC
//     mechanism" (§5).
//
//     go run ./examples/inference
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/object"
	"repro/internal/prefetch"
	"repro/internal/serde"
)

func main() {
	cluster, err := core.NewCluster(core.Config{
		Seed:     7,
		Scheme:   core.SchemeE2E,
		NumNodes: 4,
		Prefetch: &prefetch.Config{MaxDepth: 1, MaxObjects: 16, BudgetBytes: 8 << 20},
	})
	if err != nil {
		log.Fatal(err)
	}
	alice, bob, carol, dave := cluster.Node(0), cluster.Node(1), cluster.Node(2), cluster.Node(3)
	alice.SetLoadProfile(1, 0)     // modest edge device
	bob.SetLoadProfile(10, 0.95)   // cloud, overloaded (§2)
	carol.SetLoadProfile(10, 0.05) // cloud, mostly idle
	dave.SetLoadProfile(12, 0.9)   // powerful edge device (§5), busy for now

	// Build the sparse global model and partition it into shard
	// objects on Bob. The root object references every shard through
	// its FOT — the reachability graph the system can see.
	m := model.NewRandom(7, 4000, 32)
	parts, err := model.BuildPartitioned(cluster.Generator(), m, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := bob.AdoptObject(parts.Root); err != nil {
		log.Fatal(err)
	}
	for _, shard := range parts.Shards {
		if err := bob.AdoptObject(shard); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("model: %d buckets x %d dims, %d shards on Bob (root %s)\n",
		4000, 32, len(parts.Shards), parts.Root.ID().Short())

	// Alice's activation: a handful of feature IDs (small, by value).
	activation := m.Features()[100:132]
	want := m.Infer(activation)

	// The inference function every node carries: walk the partition
	// table, pull only the shards the activation touches, sum scores.
	for _, n := range cluster.Nodes {
		n.Registry.Register("sparse.infer", func(ctx *core.ExecCtx) {
			act := decodeActivation(ctx.Param)
			ctx.Node().Deref(ctx.Args[0]).Then(func(root *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				rv, err := model.LoadRootView(root)
				if err != nil {
					ctx.Fail(err)
					return
				}
				groups, err := rv.GroupByShard(act)
				if err != nil {
					ctx.Fail(err)
					return
				}
				var refs []object.Global
				var feats [][]uint64
				for id, fs := range groups {
					refs = append(refs, object.Global{Obj: id})
					feats = append(feats, fs)
				}
				ctx.Node().DerefAll(refs).Then(func(shards []*object.Object, err error) {
					if err != nil {
						ctx.Fail(err)
						return
					}
					total := 0.0
					for i, s := range shards {
						v, verr := model.LoadView(s)
						if verr != nil {
							ctx.Fail(verr)
							return
						}
						total += v.Infer(feats[i])
					}
					out := serde.NewEncoder(8)
					out.PutFloat64(total)
					ctx.Return(out.Bytes())
				})
			})
		})
	}

	code, err := alice.CreateCodeObject("sparse.infer", parts.Root.ID())
	if err != nil {
		log.Fatal(err)
	}
	codeRef := object.Global{Obj: code.ID()}
	rootRef := object.Global{Obj: parts.Root.ID()}

	// --- Scenario 1: Alice invokes; Bob overloaded → Carol executes.
	alice.Invoke(codeRef, []object.Global{rootRef},
		func(res core.InvokeResult, err error) {
			if err != nil {
				log.Fatal(err)
			}
			report("Alice's request", res, want, cluster)
		},
		core.WithParam(encodeActivation(activation)),
		core.WithComputeWork(0.01), core.WithResultSize(8))
	cluster.Run()

	// --- Scenario 2: same reference-based request from Dave, now
	// idle and holding a warmed cached copy — the system runs it
	// locally with zero data movement (elapsed simulated time ~0).
	dave.SetLoadProfile(12, 0)
	dave.Deref(rootRef)
	cluster.Run()
	dave.Invoke(codeRef, []object.Global{rootRef},
		func(res core.InvokeResult, err error) {
			if err != nil {
				log.Fatal(err)
			}
			report("Dave's request", res, want, cluster)
		},
		core.WithParam(encodeActivation(activation)),
		core.WithComputeWork(0.01), core.WithResultSize(8))
	cluster.Run()
}

func report(who string, res core.InvokeResult, want float64, cluster *core.Cluster) {
	got := serde.NewDecoder(res.Result).Float64()
	fmt.Printf("%-16s executor=%v elapsed=%v score=%.4f (expected %.4f)\n",
		who+":", res.Executor, res.Elapsed, got, want)
	if len(res.Decision.Candidates) > 0 {
		fmt.Printf("%-16s cost model ranked:", "")
		for _, c := range res.Decision.Candidates {
			fmt.Printf(" %v=%.1fms", c.Station, c.Total*1000)
		}
		fmt.Println()
	}
}

func encodeActivation(features []uint64) []byte {
	e := serde.NewEncoder(8 * (len(features) + 1))
	e.PutUvarint(uint64(len(features)))
	for _, f := range features {
		e.PutUvarint(f)
	}
	return e.Bytes()
}

func decodeActivation(raw []byte) []uint64 {
	d := serde.NewDecoder(raw)
	out := make([]uint64, d.Uvarint())
	for i := range out {
		out[i] = d.Uvarint()
	}
	return out
}
