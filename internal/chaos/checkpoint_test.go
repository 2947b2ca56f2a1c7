package chaos

import (
	"context"
	"errors"
	"testing"
)

func TestCancelAtCheckpointTripsExactly(t *testing.T) {
	c := CancelAtCheckpoint(3)
	if err := c.Err(); err != nil {
		t.Fatalf("poll 1: unexpected error %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("poll 2: unexpected error %v", err)
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("poll 3: got %v, want context.Canceled", err)
	}
	// Once tripped, it stays tripped.
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("poll 4: got %v, want context.Canceled", err)
	}
	if !c.Tripped() {
		t.Fatal("Tripped() = false after trip")
	}
	if c.Polls() != 4 {
		t.Fatalf("Polls() = %d, want 4", c.Polls())
	}
}

func TestCancelAtCheckpointZeroTripsImmediately(t *testing.T) {
	c := CancelAtCheckpoint(0)
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("poll 1: got %v, want context.Canceled", err)
	}
}

func TestDoneIsNonNilAndNeverCloses(t *testing.T) {
	c := CancelAtCheckpoint(1)
	done := c.Done()
	if done == nil {
		t.Fatal("Done() = nil; solvers would skip polling this context")
	}
	c.Err() // trip
	select {
	case <-done:
		t.Fatal("Done channel closed; contract is Err-polling only")
	default:
	}
}

func TestCountCheckpoints(t *testing.T) {
	n := CountCheckpoints(func(ctx context.Context) {
		for i := 0; i < 7; i++ {
			if ctx.Err() != nil {
				t.Fatal("non-tripping context tripped")
			}
		}
	})
	if n != 7 {
		t.Fatalf("CountCheckpoints = %d, want 7", n)
	}
}

// interface conformance
var _ context.Context = (*Context)(nil)
