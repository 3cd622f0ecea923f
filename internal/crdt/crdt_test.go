package crdt

import (
	"testing"
	"testing/quick"
)

func TestGCounterBasics(t *testing.T) {
	c := NewGCounter()
	c.Inc(1, 5)
	c.Inc(2, 3)
	c.Inc(1, 2)
	if c.Value() != 10 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestGCounterMergeConverges(t *testing.T) {
	a, b := NewGCounter(), NewGCounter()
	a.Inc(1, 5)
	b.Inc(2, 7)
	b.Inc(1, 3) // b saw an older view of station 1
	a.Merge(b)
	b.Merge(a)
	if a.Value() != b.Value() {
		t.Fatalf("diverged: %d vs %d", a.Value(), b.Value())
	}
	if a.Value() != 12 { // max(5,3) + 7
		t.Fatalf("Value = %d, want 12", a.Value())
	}
}

func TestGCounterMergeIdempotentCommutative(t *testing.T) {
	a, b := NewGCounter(), NewGCounter()
	a.Inc(1, 4)
	b.Inc(2, 6)
	a.Merge(b)
	v := a.Value()
	a.Merge(b) // idempotent
	if a.Value() != v {
		t.Fatal("merge not idempotent")
	}
	// Commutative.
	x, y := NewGCounter(), NewGCounter()
	x.Inc(1, 4)
	y.Inc(2, 6)
	y.Merge(x)
	if y.Value() != v {
		t.Fatal("merge not commutative")
	}
}

func TestGCounterMarshalRoundTrip(t *testing.T) {
	c := NewGCounter()
	c.Inc(1, 5)
	c.Inc(9, 100)
	got, err := UnmarshalGCounter(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Value() != c.Value() {
		t.Fatalf("Value = %d", got.Value())
	}
	if _, err := UnmarshalGCounter([]byte{0xFF}); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestPropertyGCounterMergeIsMax(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a, b := NewGCounter(), NewGCounter()
		for i, v := range av {
			a.Inc(1, uint64(v))
			_ = i
		}
		for _, v := range bv {
			b.Inc(2, uint64(v))
		}
		av1, bv1 := a.Value(), b.Value()
		a.Merge(b)
		// Merge never loses counts.
		return a.Value() >= av1 && a.Value() >= bv1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
