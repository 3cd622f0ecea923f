// Quickstart: the global object space in ~80 lines.
//
// Builds a simulated three-node cluster (the §4 topology), creates a
// data object with cross-machine references, and invokes a code
// reference over it — letting the system pick where code and data
// rendezvous.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/object"
)

func main() {
	// A cluster: 3 nodes behind 4 interconnected P4 switches, with
	// E2E (broadcast ARP-style) object discovery.
	cluster, err := core.NewCluster(core.Config{Seed: 1, Scheme: core.SchemeE2E})
	if err != nil {
		log.Fatal(err)
	}
	alice, bob := cluster.Node(0), cluster.Node(1)

	// Bob creates an object — a flat region in the 128-bit global
	// address space — and stores a greeting plus a *reference* to a
	// second object. References are first-class: they survive
	// movement between machines byte-for-byte.
	greetings, err := bob.CreateObject(4096)
	if err != nil {
		log.Fatal(err)
	}
	textOff, _ := greetings.AllocString("hello from the global address space")

	detail, err := bob.CreateObject(4096)
	if err != nil {
		log.Fatal(err)
	}
	detailOff, _ := detail.AllocString("reached through a cross-object pointer")
	refSlot, _ := greetings.Alloc(8, 8)
	if err := greetings.StoreRef(refSlot, detail.ID(), detailOff, object.FlagRead); err != nil {
		log.Fatal(err)
	}

	// Every node registers the same function under a symbol; a code
	// object names the symbol, making code itself addressable data.
	for _, n := range cluster.Nodes {
		n.Registry.Register("greet", func(ctx *core.ExecCtx) {
			ctx.Node().Deref(ctx.Args[0]).Then(func(o *object.Object, err error) {
				if err != nil {
					ctx.Fail(err)
					return
				}
				text, _ := o.LoadString(textOff)
				// Follow the cross-object reference — the runtime
				// pulls the second object on demand.
				ref, _ := o.LoadRef(refSlot)
				ctx.Node().Deref(ref).Then(func(d *object.Object, err error) {
					if err != nil {
						ctx.Fail(err)
						return
					}
					more, _ := d.LoadString(ref.Off)
					ctx.Return([]byte(text + " / " + more))
				})
			})
		})
	}

	// Alice invokes the code reference over the data reference. She
	// names *what*, not *where*: the placement engine chooses the
	// executor from data location, load, and transfer costs.
	code, err := alice.CreateCodeObject("greet", greetings.ID())
	if err != nil {
		log.Fatal(err)
	}
	future := new(core.Future[core.InvokeResult])
	alice.Invoke(
		object.Global{Obj: code.ID()},
		[]object.Global{{Obj: greetings.ID()}},
		future.Resolve,
		core.WithComputeWork(0.0001), core.WithResultSize(128))

	// Await resolves the future on whichever backend the cluster runs:
	// under the simulator it pumps the virtual clock; over real sockets
	// (core.BackendRealnet) it blocks until the reply datagram lands.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := core.Await(ctx, cluster, future)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result:   %s\n", res.Result)
	fmt.Printf("executor: station %v (chosen by the system)\n", res.Executor)
	fmt.Printf("elapsed:  %v of simulated time\n", res.Elapsed)
}
