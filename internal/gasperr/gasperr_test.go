package gasperr

import (
	"errors"
	"fmt"
	"testing"
)

// TestClass: an error a layer wraps around one sentinel belongs to that
// class and to no other, which is all errors.Is needs to classify it.
func TestClass(t *testing.T) {
	classes := []error{ErrNotFound, ErrTimeout, ErrUnreachable, ErrTableFull, ErrNotLeader}
	for _, c := range classes {
		err := fmt.Errorf("transport: gave up: %w", c)
		for _, other := range classes {
			if got := errors.Is(err, other); got != (other == c) {
				t.Errorf("errors.Is(%v, %v) = %v", err, other, got)
			}
		}
	}
	for _, other := range classes {
		if errors.Is(errors.New("unrelated"), other) {
			t.Errorf("an unrelated error is in class %v", other)
		}
	}
}
