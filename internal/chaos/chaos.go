// Package chaos is a deterministic fault injector for serving-layer
// resilience testing. An Injector makes seeded pseudo-random decisions —
// inject latency into a query, fail it outright, delay or fail an index
// build — and exposes them as hook functions matching the serving layer's
// server.Hooks signatures, so a chaos test (or a staging deployment of
// cmd/iflsd) wires faults into the real request path without touching
// solver code:
//
//	inj := chaos.New(chaos.Config{Seed: 1, ErrorProb: 0.1, LatencyProb: 0.3, MaxLatency: 50 * time.Millisecond})
//	srv := server.New(reg, server.Options{Hooks: server.Hooks{
//		BeforeExecute: inj.BeforeExecute,
//		BeforeBuild:   inj.BeforeBuild,
//	}})
//
// Determinism: all decisions are drawn from one seeded source, so a run
// with the same seed and the same arrival order of calls makes the same
// decisions. Under concurrency the arrival order itself varies with the
// scheduler; what stays reproducible is the decision distribution, and
// Stats reports exactly what was injected so assertions never guess.
//
// Below the serving layer, CancelAtCheckpoint (checkpoint.go) injects
// cancellation at an exact solver checkpoint, so tests can sweep it.
//
// The package deliberately depends on nothing above the standard library:
// the serving layer must not import its own fault injector.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks failures manufactured by an Injector. Chaos tests
// classify observed errors with errors.Is to separate injected faults from
// real ones — a real failure during a chaos run must not hide behind the
// injector.
var ErrInjected = errors.New("chaos: injected fault")

// Config sets the fault mix. All probabilities are in [0, 1]; zero
// disables that fault. The zero Config injects nothing.
type Config struct {
	// Seed fixes the pseudo-random decision sequence. The same seed and
	// call order reproduce the same faults.
	Seed int64
	// LatencyProb is the chance a query execution is delayed by a uniform
	// random duration in (0, MaxLatency].
	LatencyProb float64
	// MaxLatency bounds injected query latency; zero with a non-zero
	// LatencyProb defaults to 10ms.
	MaxLatency time.Duration
	// ErrorProb is the chance a query execution fails with ErrInjected.
	ErrorProb float64
	// BuildFailProb is the chance a triggered index build fails with
	// ErrInjected before the real build starts.
	BuildFailProb float64
	// SlowBuildProb is the chance a triggered index build is delayed by a
	// uniform random duration in (0, MaxBuildDelay].
	SlowBuildProb float64
	// MaxBuildDelay bounds injected build latency; zero with a non-zero
	// SlowBuildProb defaults to 10ms.
	MaxBuildDelay time.Duration
}

// Stats counts the faults an Injector has actually injected. Counters only
// grow; read a consistent snapshot with Injector.Stats.
type Stats struct {
	// Latencies is the number of queries delayed.
	Latencies int64
	// Errors is the number of queries failed with ErrInjected.
	Errors int64
	// BuildFails is the number of index builds failed.
	BuildFails int64
	// SlowBuilds is the number of index builds delayed.
	SlowBuilds int64
}

// Injector draws seeded fault decisions and exposes them as serving hooks.
// Safe for concurrent use.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	latencies  atomic.Int64
	errors     atomic.Int64
	buildFails atomic.Int64
	slowBuilds atomic.Int64
}

// New builds an Injector for the given fault mix.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// roll draws one uniform float in [0,1) from the seeded source.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// duration draws a uniform duration in (0, max] from the seeded source.
func (in *Injector) duration(max time.Duration) time.Duration {
	if max <= 0 {
		max = 10 * time.Millisecond
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return time.Duration(in.rng.Int63n(int64(max))) + 1
}

// sleep blocks for d or until ctx dies, whichever is first, returning
// ctx's error in the latter case.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BeforeExecute is a server.Hooks.BeforeExecute: it delays the query with
// probability LatencyProb (honoring ctx — an injected delay cut short by
// cancellation or deadline returns the context's error) and fails it with
// probability ErrorProb.
func (in *Injector) BeforeExecute(ctx context.Context, venue string) error {
	if in.cfg.LatencyProb > 0 && in.roll() < in.cfg.LatencyProb {
		in.latencies.Add(1)
		if err := sleep(ctx, in.duration(in.cfg.MaxLatency)); err != nil {
			return err
		}
	}
	if in.cfg.ErrorProb > 0 && in.roll() < in.cfg.ErrorProb {
		in.errors.Add(1)
		return fmt.Errorf("%w: query against %q", ErrInjected, venue)
	}
	return nil
}

// BeforeBuild is a server.Hooks.BeforeBuild: it delays a lazy index build
// with probability SlowBuildProb and fails it with probability
// BuildFailProb. An injected build failure fails only the requests that
// raced that build trigger — it must never poison the venue.
func (in *Injector) BeforeBuild(ctx context.Context, venue string) error {
	if in.cfg.SlowBuildProb > 0 && in.roll() < in.cfg.SlowBuildProb {
		in.slowBuilds.Add(1)
		if err := sleep(ctx, in.duration(in.cfg.MaxBuildDelay)); err != nil {
			return err
		}
	}
	if in.cfg.BuildFailProb > 0 && in.roll() < in.cfg.BuildFailProb {
		in.buildFails.Add(1)
		return fmt.Errorf("%w: build of %q", ErrInjected, venue)
	}
	return nil
}

// Stats returns the faults injected so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Latencies:  in.latencies.Load(),
		Errors:     in.errors.Load(),
		BuildFails: in.buildFails.Load(),
		SlowBuilds: in.slowBuilds.Load(),
	}
}

// CorruptReader wraps r so the stream is deterministically damaged: within
// each block of blockLen bytes, one seeded-random bit is flipped. Feeding
// a CorruptReader of a persisted index into vip.Load models a disk or
// transport that silently mangles bytes — the load must detect it
// (ErrCorruptIndex), never serve from it.
func CorruptReader(r io.Reader, seed int64, blockLen int) io.Reader {
	if blockLen <= 0 {
		blockLen = 256
	}
	return &corruptReader{r: r, rng: rand.New(rand.NewSource(seed)), blockLen: blockLen}
}

type corruptReader struct {
	r        io.Reader
	rng      *rand.Rand
	blockLen int
	off      int // bytes consumed of the current block
	flipAt   int // offset within the block whose byte gets a bit flip
	flipBit  uint
	armed    bool
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	for i := 0; i < n; i++ {
		if !c.armed {
			c.flipAt = c.rng.Intn(c.blockLen)
			c.flipBit = uint(c.rng.Intn(8))
			c.armed = true
		}
		if c.off == c.flipAt {
			p[i] ^= 1 << c.flipBit
		}
		c.off++
		if c.off == c.blockLen {
			c.off = 0
			c.armed = false
		}
	}
	return n, err
}
