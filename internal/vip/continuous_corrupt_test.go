package vip_test

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/continuous"
	"github.com/indoorspatial/ifls/internal/faults"
	"github.com/indoorspatial/ifls/internal/leakcheck"
	"github.com/indoorspatial/ifls/internal/motion"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// tickRecover runs one engine tick and converts a corruption panic raised
// on this goroutine back into its error.
func tickRecover(eng *continuous.Engine, dt time.Duration) (err error) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = e
		}
	}()
	_, err = eng.Tick(dt)
	return err
}

// TestContinuousSignPanicReachesTick: a standing query over a paged index
// whose one union-matrix page holds a NaN cell under a recomputed CRC.
// A tick that signs two or more partitions computes them across cores
// (continuous's era.sign), so the failed page read may panic on a worker
// goroutine. Tick must re-raise that panic on its caller's goroutine, with
// the ErrCorruptIndex error, once every worker has joined: no goroutine is
// left running. Run with -cpu 1,2 it covers the one-worker path too.
//
// A clean run over the same file, recording the pages it reads, picks the
// page: a union page that New does not read and that a tick signing two or
// more partitions reads first. Two facilities at one end of a three-level
// grid and four walkers keep New's reads to a part of the index.
func TestContinuousSignPanicReachesTick(t *testing.T) {
	const (
		pageSize = 64
		dt       = 30 * time.Second
		maxTicks = 60
	)
	v := testvenue.Grid(testvenue.GridParams{Cols: 12, Levels: 3, InterRoomDoors: true})
	tree := vip.MustBuild(v, vip.Options{LeafFanout: 2, NodeFanout: 2, Vivid: true})
	data := vip.SavePagedBytes(t, tree, pageSize)
	rooms := v.Rooms()
	standing := func(tree *vip.Tree) *continuous.Engine {
		t.Helper()
		sim, err := motion.NewSimulation(v, tree.Graph(), motion.Config{Walkers: 4, Dwell: 20 * time.Second, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := continuous.New(continuous.Config{
			Tree: tree, Sim: sim, ClockStart: 8 * time.Hour,
			Existing:   rooms[:1],
			Candidates: rooms[1:2],
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	rec, pages := vip.RecordPages(data, pageSize)
	clean, err := vip.OpenPaged(rec, int64(len(data)), v, vip.PagedOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	eng := standing(clean)
	badTick, cell := 0, int64(-1)
	for tick := 1; tick <= maxTicks && cell < 0; tick++ {
		seen, signed := maps.Clone(pages), eng.Stats().Signed
		if _, err := eng.Tick(dt); err != nil {
			t.Fatal(err)
		}
		if eng.Stats().Signed-signed < 2 {
			continue
		}
		var union []int64 // union pages first read this tick
		for p := range pages {
			if !seen[p] && vip.UnionCellOn(tree, p, pageSize) >= 0 {
				union = append(union, p)
			}
		}
		if len(union) > 0 {
			badTick, cell = tick, vip.UnionCellOn(tree, slices.Min(union), pageSize)
		}
	}
	if cell < 0 {
		t.Fatalf("no tick that signs two partitions reads a new union page in %d ticks; the test proves nothing", maxTicks)
	}

	defer leakcheck.Check(t)()
	bad := vip.WithCell(t, data, cell, math.NaN())
	paged, err := vip.OpenPaged(bytes.NewReader(bad), int64(len(bad)), v, vip.PagedOptions{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	eng = standing(paged)
	for tick := 1; tick < badTick; tick++ {
		if err := tickRecover(eng, dt); err != nil {
			t.Fatalf("tick %d reads no bad page but failed: %v", tick, err)
		}
	}
	if err := tickRecover(eng, dt); !errors.Is(err, faults.ErrCorruptIndex) {
		t.Fatalf("tick %d reads the bad page: err = %v, want a panic with ErrCorruptIndex", badTick, err)
	}
}
