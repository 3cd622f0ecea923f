package core

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/placement"
	"repro/internal/serde"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Errors surfaced by invocation.
var (
	ErrNoFunction = errors.New("core: symbol not in registry")
	ErrNotCode    = errors.New("core: object is not a code object")
	ErrFinished   = errors.New("core: execution context already completed")
)

// codeMagic marks code objects ("the uniformity between code and
// data", §5: code is just another object in the space).
const codeMagic = 0x45444F43 // "CODE"

// Func is an executable registered under a code object's symbol. It
// runs on whichever node the system places it and must complete the
// context exactly once (Return or Fail).
type Func func(ctx *ExecCtx)

// Registry maps code symbols to executables. Every node carries a
// registry; a code object names a symbol, so moving the code object
// moves the right to invoke it (the dispatch itself is a local map
// lookup — the simulation substitution for shipping machine code).
type Registry struct {
	funcs map[string]Func
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: make(map[string]Func)}
}

// Register installs fn under symbol.
func (r *Registry) Register(symbol string, fn Func) {
	r.funcs[symbol] = fn
}

// Lookup finds a symbol's executable.
func (r *Registry) Lookup(symbol string) (Func, bool) {
	fn, ok := r.funcs[symbol]
	return fn, ok
}

// BuildCodeObject lays out a code object: magic, symbol, and FOT
// references to the data objects the code is known to touch (its
// static reachability, which the prefetcher can exploit).
func BuildCodeObject(id oid.ID, symbol string, deps ...oid.ID) (*object.Object, error) {
	size := object.HeaderSize + object.FOTEntrySize*object.DefaultFOTCap +
		16 + 8 + len(symbol) + 64
	o, err := object.New(id, size, 0)
	if err != nil {
		return nil, err
	}
	magicOff, err := o.Alloc(8, 8)
	if err != nil {
		return nil, err
	}
	if err := o.PutUint64(magicOff, codeMagic); err != nil {
		return nil, err
	}
	if _, err := o.AllocString(symbol); err != nil {
		return nil, err
	}
	for _, d := range deps {
		if _, err := o.AddFOT(d, object.FlagRead); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// CodeSymbol extracts the symbol from a code object.
func CodeSymbol(o *object.Object) (string, error) {
	base := o.HeapBase()
	magic, err := o.Uint64(base)
	if err != nil || magic != codeMagic {
		return "", ErrNotCode
	}
	return o.LoadString(base + 8)
}

// CreateCodeObject builds a code object and homes it at this node.
func (n *Node) CreateCodeObject(symbol string, deps ...oid.ID) (*object.Object, error) {
	o, err := BuildCodeObject(n.NewHomedID(), symbol, deps...)
	if err != nil {
		return nil, err
	}
	if err := n.AdoptObject(o); err != nil {
		return nil, err
	}
	return o, nil
}

// ExecCtx is the environment a Func runs in: the executing node, the
// argument references, and a small by-value parameter blob.
type ExecCtx struct {
	node  *Node
	Args  []object.Global
	Param []byte

	reply    func([]byte, error)
	finished bool
}

// Node returns the executing node, through which the code dereferences,
// reads and writes its arguments.
func (c *ExecCtx) Node() *Node { return c.node }

// Return completes the invocation with a result.
func (c *ExecCtx) Return(result []byte) {
	if c.finished {
		return
	}
	c.finished = true
	c.reply(result, nil)
}

// Fail completes the invocation with an error.
func (c *ExecCtx) Fail(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.reply(nil, err)
}

// invokeOpts is the resolved option set for one invocation. It is
// internal: callers compose InvokeOption values instead, so a knob
// never widens the Invoke signature.
type invokeOpts struct {
	param         []byte
	computeWork   float64
	resultSize    int64
	forceExecutor wire.StationID
}

// InvokeOption tunes a single invocation.
type InvokeOption func(*invokeOpts)

// resolveOptions folds opts into the defaults.
func resolveOptions(opts []InvokeOption) *invokeOpts {
	o := &invokeOpts{}
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// WithParam attaches a small by-value parameter (e.g. an activation).
func WithParam(p []byte) InvokeOption {
	return func(o *invokeOpts) { o.param = p }
}

// WithComputeWork feeds the placement cost model's work estimate.
func WithComputeWork(w float64) InvokeOption {
	return func(o *invokeOpts) { o.computeWork = w }
}

// WithResultSize hints the result bytes for the cost model.
func WithResultSize(n int64) InvokeOption {
	return func(o *invokeOpts) { o.resultSize = n }
}

// WithExecutor bypasses placement entirely (0 = system chooses). Used
// by the baseline comparisons where the programmer hard-codes the
// executor, which is precisely what the paper argues against.
func WithExecutor(st wire.StationID) InvokeOption {
	return func(o *invokeOpts) { o.forceExecutor = st }
}

// InvokeResult reports a completed invocation.
type InvokeResult struct {
	Result   []byte
	Executor wire.StationID
	Decision placement.Decision
	Elapsed  netsim.Duration
}

// ChainStep is one stage of a multi-step computation: its code, the
// data references it touches, and options. The previous stage's result
// bytes arrive as this stage's parameter (prepended before the step's
// own WithParam bytes, if both are set).
type ChainStep struct {
	Code object.Global
	Args []object.Global
	Opts []InvokeOption
}

// InvokeChain runs steps sequentially, placing each independently by
// the cost model — the "co-design between query planning ... and
// network-level scheduling" sketched in §5: each stage gravitates to
// its data, and only the (small) intermediate results travel.
func (n *Node) InvokeChain(steps []ChainStep, cb func([]InvokeResult, error)) {
	results := make([]InvokeResult, 0, len(steps))
	var run func(i int, carry []byte)
	run = func(i int, carry []byte) {
		if i >= len(steps) {
			cb(results, nil)
			return
		}
		step := steps[i]
		o := resolveOptions(step.Opts)
		if carry != nil {
			if len(o.param) > 0 {
				o.param = append(append([]byte(nil), carry...), o.param...)
			} else {
				o.param = carry
			}
		}
		n.invokeResolved(step.Code, step.Args, o, func(res InvokeResult, err error) {
			if err != nil {
				cb(results, fmt.Errorf("core: chain step %d: %w", i, err))
				return
			}
			results = append(results, res)
			run(i+1, res.Result)
		})
	}
	run(0, nil)
}

// invokeMethod is the internal method name remote invocations ride on.
const invokeMethod = "_core.invoke"

// marshalInvoke encodes the invocation request.
func marshalInvoke(code object.Global, args []object.Global, param []byte) []byte {
	e := serde.NewEncoder(64 + 24*len(args) + len(param))
	putGlobal(e, code)
	e.PutUvarint(uint64(len(args)))
	for _, g := range args {
		putGlobal(e, g)
	}
	e.PutBytes(param)
	return e.Bytes()
}

func putGlobal(e *serde.Encoder, g object.Global) {
	e.PutUint64(g.Obj.Hi)
	e.PutUint64(g.Obj.Lo)
	e.PutUint64(g.Off)
}

func getGlobal(d *serde.Decoder) object.Global {
	return object.Global{
		Obj: oid.ID{Hi: d.Uint64(), Lo: d.Uint64()},
		Off: d.Uint64(),
	}
}

func unmarshalInvoke(raw []byte) (code object.Global, args []object.Global, param []byte, err error) {
	d := serde.NewDecoder(raw)
	code = getGlobal(d)
	n := d.Uvarint()
	if d.Err() != nil {
		return code, nil, nil, d.Err()
	}
	if n > uint64(d.Remaining()/24) { // an argument is 24 bytes on the wire
		return code, nil, nil, fmt.Errorf("core: absurd arg count %d", n)
	}
	args = make([]object.Global, n)
	for i := range args {
		args[i] = getGlobal(d)
	}
	param = d.Bytes()
	return code, args, param, d.Err()
}

// registerInvoke installs the remote-invocation entry point.
func (r *Registry) registerInvoke(n *Node) {
	n.RPCServer.RegisterAsync(invokeMethod, func(raw []byte, reply func([]byte, error)) {
		code, args, param, err := unmarshalInvoke(raw)
		if err != nil {
			reply(nil, err)
			return
		}
		n.executeLocal(code, args, param, reply)
	})
}

// executeLocal fetches the code object (code mobility: the code moves
// to the data's chosen rendezvous as bytes like everything else),
// resolves its symbol, and runs it.
func (n *Node) executeLocal(code object.Global, args []object.Global, param []byte,
	reply func([]byte, error)) {

	n.Deref(code).Then(func(codeObj *object.Object, err error) {
		if err != nil {
			reply(nil, fmt.Errorf("core: fetching code object: %w", err))
			return
		}
		symbol, err := CodeSymbol(codeObj)
		if err != nil {
			reply(nil, err)
			return
		}
		fn, ok := n.Registry.Lookup(symbol)
		if !ok {
			reply(nil, fmt.Errorf("%w: %q", ErrNoFunction, symbol))
			return
		}
		fn(&ExecCtx{node: n, Args: args, Param: param, reply: reply})
	})
}

// buildPlacementRequest assembles the cost-model inputs from the
// metadata service's view of the objects involved.
func (n *Node) buildPlacementRequest(code object.Global, args []object.Global,
	opts *invokeOpts) *placement.Request {

	req := &placement.Request{
		Invoker:     n.Station,
		ComputeWork: opts.computeWork,
		ResultSize:  opts.resultSize,
	}
	fill := func(g object.Global) placement.DataItem {
		item := placement.DataItem{Obj: g.Obj}
		if home, size, ok := n.cluster.Locate(g.Obj); ok {
			item.Size = int64(size)
			item.Location = home
		} else {
			item.Location = n.Station
		}
		for _, other := range n.cluster.Nodes {
			if other.Station != item.Location && other.Store.Contains(g.Obj) {
				item.CachedAt = append(item.CachedAt, other.Station)
			}
		}
		return item
	}
	req.Code = fill(code)
	for _, g := range args {
		req.Data = append(req.Data, fill(g))
	}
	return req
}

// Invoke runs a code reference over data references. Unless forced,
// the system chooses the executor via the rendezvous cost model
// (Figure 1 part 3): code moves to the executor as a byte copy, data
// is pulled on demand, and only the (small) result returns. Behavior
// is tuned by functional options (WithParam, WithComputeWork,
// WithTimeout, WithExecutor, ...).
func (n *Node) Invoke(code object.Global, args []object.Global,
	cb func(InvokeResult, error), opts ...InvokeOption) {

	n.invokeResolved(code, args, resolveOptions(opts), cb)
}

// invokeResolved is the timed, traced core of Invoke.
func (n *Node) invokeResolved(code object.Global, args []object.Global,
	o *invokeOpts, cb func(InvokeResult, error)) {

	start := n.Clock().Now()
	sp := n.cluster.Tracer.StartRoot("op:invoke")
	n.invokeOnce(code, args, o, sp.Ctx(), func(res InvokeResult, err error) {
		res.Elapsed = n.Clock().Now().Sub(start)
		if sp != nil {
			sp.SetAttr("executor", fmt.Sprintf("%d", res.Executor))
			if err != nil {
				sp.SetAttr("error", err.Error())
			}
			sp.End()
		}
		cb(res, err)
	})
}

// invokeOnce places the invocation and executes it.
func (n *Node) invokeOnce(code object.Global, args []object.Global,
	o *invokeOpts, tc trace.Ctx, cb func(InvokeResult, error)) {

	res := InvokeResult{}
	executor := o.forceExecutor
	if executor == 0 {
		dec, err := n.cluster.Placement.Choose(n.buildPlacementRequest(code, args, o))
		if err != nil {
			cb(res, err)
			return
		}
		res.Decision = dec
		executor = dec.Executor
	}
	res.Executor = executor

	finish := func(result []byte, err error) {
		res.Result = result
		cb(res, err)
	}
	if executor == n.Station {
		n.executeLocal(code, args, o.param, finish)
		return
	}
	blob := marshalInvoke(code, args, o.param)
	// Remote invocations may pull large objects; allow generous
	// virtual time.
	n.RPCClient.CallCtx(executor, invokeMethod, blob, 30*netsim.Second, tc, finish)
}
