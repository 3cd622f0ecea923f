package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/memproto"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/wire"
)

type rig struct {
	sim    *netsim.Sim
	net    *netsim.Network
	client *Client
	server *Server
}

func newRig(t *testing.T, link netsim.LinkConfig) *rig {
	t.Helper()
	sim := netsim.NewSim(19)
	net := netsim.NewNetwork(sim)
	ha, err := netsim.NewHost(net, "client")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := netsim.NewHost(net, "server")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(ha, 0, hb, 0, link); err != nil {
		t.Fatal(err)
	}
	epA := transport.NewEndpoint(ha, 1, transport.Config{})
	epB := transport.NewEndpoint(hb, 2, transport.Config{})
	client := NewClient(epA)
	server := NewServer(epB)
	epA.SetHandler(func(h *wire.Header, p []byte) { client.HandleFrame(h, p) })
	epB.SetHandler(func(h *wire.Header, p []byte) { server.HandleFrame(h, p) })
	return &rig{sim: sim, net: net, client: client, server: server}
}

func TestCallEcho(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Latency: 5 * netsim.Microsecond})
	r.server.Register("echo", func(args []byte) ([]byte, error) {
		return append([]byte("echo:"), args...), nil
	})
	var got []byte
	var gotErr error
	r.client.Call(2, "echo", []byte("hi"), func(res []byte, err error) {
		got, gotErr = res, err
	})
	r.sim.Run()
	if gotErr != nil || string(got) != "echo:hi" {
		t.Fatalf("result = %q, %v", got, gotErr)
	}
	if r.server.Counters().CallsServed != 1 || r.client.Counters().CallsSent != 1 {
		t.Fatalf("counters: server=%+v client=%+v", r.server.Counters(), r.client.Counters())
	}
}

func TestCallNoMethod(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var gotErr error
	r.client.Call(2, "missing", nil, func(_ []byte, err error) { gotErr = err })
	r.sim.Run()
	if !errors.Is(gotErr, ErrNoMethod) {
		t.Fatalf("err = %v", gotErr)
	}
	if r.server.Counters().NoMethod != 1 {
		t.Fatal("NoMethod counter")
	}
}

func TestCallAppError(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	r.server.Register("fail", func([]byte) ([]byte, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	var gotErr error
	r.client.Call(2, "fail", nil, func(_ []byte, err error) { gotErr = err })
	r.sim.Run()
	if !errors.Is(gotErr, ErrRemote) {
		t.Fatalf("err = %v", gotErr)
	}
	if r.server.Counters().AppErrors != 1 {
		t.Fatal("AppErrors counter")
	}
}

func TestLargeArgsChunked(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Latency: 2 * netsim.Microsecond, BitsPerSec: 10_000_000_000})
	args := make([]byte, 500_000)
	for i := range args {
		args[i] = byte(i * 7)
	}
	r.server.Register("sum", func(a []byte) ([]byte, error) {
		var s uint64
		for _, b := range a {
			s += uint64(b)
		}
		return []byte(fmt.Sprint(s)), nil
	})
	var got []byte
	var gotErr error
	r.client.Call(2, "sum", args, func(res []byte, err error) { got, gotErr = res, err })
	r.sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	var want uint64
	for _, b := range args {
		want += uint64(b)
	}
	if string(got) != fmt.Sprint(want) {
		t.Fatalf("sum = %s, want %d", got, want)
	}
	if r.server.Counters().BytesArgs != uint64(len(args)) {
		t.Fatalf("BytesArgs = %d", r.server.Counters().BytesArgs)
	}
}

// TestChunksAreTheTransferUnit: a 64 KiB argument and a 64 KiB result
// each cross as two frames of one memproto transfer unit, the framing a
// 64 KiB grant gets, so call-by-value and references are compared over
// the same transfer mechanics.
func TestChunksAreTheTransferUnit(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Latency: 2 * netsim.Microsecond, BitsPerSec: 10_000_000_000})
	chunks := map[string][]int{}
	r.net.SetFrameControlHook(func(from, _ string, fr netsim.Frame) netsim.FrameControl {
		var h wire.Header
		var ev envelope
		if h.DecodeFrom(fr) == nil && h.Type == wire.MsgRPC && ev.unmarshal(fr[h.WireLen():]) == nil {
			chunks[from] = append(chunks[from], len(ev.data))
		}
		return netsim.FrameControl{}
	})
	r.server.Register("echo", func(a []byte) ([]byte, error) { return a, nil })
	var gotErr error
	r.client.Call(2, "echo", make([]byte, 64<<10), func(_ []byte, err error) { gotErr = err })
	r.sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	want := []int{memproto.MaxFragData, memproto.MaxFragData}
	for _, from := range []string{"client", "server"} {
		if !slices.Equal(chunks[from], want) {
			t.Errorf("%s sent chunks of %v bytes, want %v", from, chunks[from], want)
		}
	}
}

func TestLargeResultChunked(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Latency: 2 * netsim.Microsecond, BitsPerSec: 10_000_000_000})
	result := make([]byte, 300_000)
	for i := range result {
		result[i] = byte(i * 13)
	}
	r.server.Register("fetch", func([]byte) ([]byte, error) { return result, nil })
	var got []byte
	var gotErr error
	r.client.Call(2, "fetch", nil, func(res []byte, err error) { got, gotErr = res, err })
	r.sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !bytes.Equal(got, result) {
		t.Fatalf("result mismatch: %d bytes", len(got))
	}
}

func TestEmptyArgsAndResult(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	r.server.Register("noop", func(a []byte) ([]byte, error) {
		if len(a) != 0 {
			t.Errorf("args = %d bytes", len(a))
		}
		return nil, nil
	})
	done := false
	r.client.Call(2, "noop", nil, func(res []byte, err error) {
		if err != nil || len(res) != 0 {
			t.Errorf("res=%v err=%v", res, err)
		}
		done = true
	})
	r.sim.Run()
	if !done {
		t.Fatal("callback never ran")
	}
}

func TestConcurrentCalls(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Latency: 3 * netsim.Microsecond})
	r.server.Register("id", func(a []byte) ([]byte, error) { return a, nil })
	results := map[string]bool{}
	for i := 0; i < 20; i++ {
		arg := []byte(fmt.Sprintf("call-%d", i))
		r.client.Call(2, "id", arg, func(res []byte, err error) {
			if err != nil {
				t.Errorf("call failed: %v", err)
				return
			}
			results[string(res)] = true
		})
	}
	r.sim.Run()
	if len(results) != 20 {
		t.Fatalf("distinct results = %d", len(results))
	}
}

func TestCallUnderLoss(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{Latency: 3 * netsim.Microsecond, DropRate: 0.3})
	r.server.Register("echo", func(a []byte) ([]byte, error) { return a, nil })
	ok := 0
	for i := 0; i < 10; i++ {
		r.client.Call(2, "echo", []byte{byte(i)}, func(res []byte, err error) {
			if err == nil {
				ok++
			}
		})
	}
	r.sim.Run()
	if ok != 10 {
		t.Fatalf("only %d/10 calls survived 30%% loss", ok)
	}
}

func TestCallToDeadStation(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	var gotErr error
	r.client.Call(42, "echo", nil, func(_ []byte, err error) { gotErr = err })
	r.sim.Run()
	if !errors.Is(gotErr, ErrTransport) {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRegisterReplaces(t *testing.T) {
	r := newRig(t, netsim.LinkConfig{})
	r.server.Register("m", func([]byte) ([]byte, error) { return []byte("v1"), nil })
	r.server.Register("m", func([]byte) ([]byte, error) { return []byte("v2"), nil })
	var got []byte
	r.client.Call(2, "m", nil, func(res []byte, err error) { got = res })
	r.sim.Run()
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func BenchmarkSmallCall(b *testing.B) {
	sim := netsim.NewSim(1)
	net := netsim.NewNetwork(sim)
	ha, _ := netsim.NewHost(net, "c")
	hb, _ := netsim.NewHost(net, "s")
	net.Connect(ha, 0, hb, 0, netsim.DefaultLink)
	epA := transport.NewEndpoint(ha, 1, transport.Config{})
	epB := transport.NewEndpoint(hb, 2, transport.Config{})
	client := NewClient(epA)
	server := NewServer(epB)
	epA.SetHandler(func(h *wire.Header, p []byte) { client.HandleFrame(h, p) })
	epB.SetHandler(func(h *wire.Header, p []byte) { server.HandleFrame(h, p) })
	server.Register("echo", func(a []byte) ([]byte, error) { return a, nil })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		client.Call(2, "echo", []byte("x"), func([]byte, error) {})
		sim.Run()
	}
}
