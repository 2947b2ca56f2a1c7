// Benchmarks mapping the paper's evaluation to testing.B targets: one
// benchmark family per figure, at a reduced client scale so `go test
// -bench=.` terminates in minutes. The full-scale parameter sweeps (the
// exact Table 2 grid) are produced by cmd/iflsbench, which prints the
// tables recorded in EXPERIMENTS.md.
//
//	Figure 5  (|C|, real setting, time+memory)   -> BenchmarkFig5*
//	Figure 6  (sigma, real+synthetic)            -> BenchmarkFig6*
//	Figure 7a/8a (|C|, synthetic)                -> BenchmarkFig7a*
//	Figure 7b/8b (|Fe|, synthetic)               -> BenchmarkFig7b*
//	Figure 7c/8c (|Fn|, synthetic)               -> BenchmarkFig7c*
//
// BenchmarkQueryAt times the timed (door-schedule) answer path, and
// BenchmarkLocate and BenchmarkOpenIndexFile the point locator and a paged
// index's open; none has a counterpart in the paper.
//
// Each benchmark reports ns/op (the paper's query processing time) and
// B/op (the paper's memory cost).
package ifls_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	ifls "github.com/indoorspatial/ifls"
)

// benchClients is the client scale used by the in-test benchmarks; the
// paper default is 10000 (cmd/iflsbench covers it).
const benchClients = 1000

var (
	benchMu      sync.Mutex
	benchVenues  = map[string]*ifls.Venue{}
	benchIndexes = map[string]*ifls.Index{}
)

func benchIndex(b *testing.B, name string) (*ifls.Venue, *ifls.Index) {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if ix, ok := benchIndexes[name]; ok {
		return benchVenues[name], ix
	}
	v, err := ifls.SampleVenue(name)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		b.Fatal(err)
	}
	benchVenues[name], benchIndexes[name] = v, ix
	return v, ix
}

// defaults per venue (Table 2 means).
var benchDefaults = map[string]struct{ fe, fn int }{
	"MC":  {75, 150},
	"CH":  {100, 300},
	"CPH": {20, 35},
	"MZB": {300, 500},
}

func syntheticQuery(v *ifls.Venue, fe, fn, clients int, dist ifls.Distribution, sigma float64, seed int64) *ifls.Query {
	q, err := ifls.RandomQuery(v, fe, fn, clients, dist, sigma, seed)
	if err != nil {
		panic(err)
	}
	return q
}

func realQuery(b *testing.B, v *ifls.Venue, category string, clients int, dist ifls.Distribution, sigma float64, seed int64) *ifls.Query {
	b.Helper()
	gen := ifls.NewWorkloadGenerator(v)
	fe, fn, err := gen.RealSetting(category)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	clientSet, err := gen.Clients(clients, dist, sigma, rng)
	if err != nil {
		b.Fatal(err)
	}
	return &ifls.Query{Existing: fe, Candidates: fn, Clients: clientSet}
}

func runSolver(b *testing.B, ix *ifls.Index, q *ifls.Query, solver string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch solver {
		case "efficient":
			ix.Query(context.Background(), q, ifls.QueryOptions{})
		case "baseline":
			ix.Query(context.Background(), q, ifls.QueryOptions{Objective: ifls.Baseline})
		}
	}
}

// BenchmarkFig5 — effect of |C| in the MC real setting, per category.
func BenchmarkFig5(b *testing.B) {
	v, ix := benchIndex(b, "MC")
	for _, category := range []string{"fashion & accessories", "dining & entertainment", "banks & services"} {
		for _, nc := range []int{200, benchClients} {
			q := realQuery(b, v, category, nc, ifls.Uniform, 0, 1)
			for _, solver := range []string{"efficient", "baseline"} {
				b.Run(fmt.Sprintf("cat=%s/C=%d/%s", category[:4], nc, solver), func(b *testing.B) {
					runSolver(b, ix, q, solver)
				})
			}
		}
	}
}

// BenchmarkFig6Real — effect of sigma, MC real setting (Figure 6(i)).
func BenchmarkFig6Real(b *testing.B) {
	v, ix := benchIndex(b, "MC")
	for _, sigma := range []float64{0.125, 0.5, 2} {
		q := realQuery(b, v, "dining & entertainment", benchClients, ifls.Normal, sigma, 2)
		for _, solver := range []string{"efficient", "baseline"} {
			b.Run(fmt.Sprintf("sigma=%g/%s", sigma, solver), func(b *testing.B) {
				runSolver(b, ix, q, solver)
			})
		}
	}
}

// BenchmarkFig6Syn — effect of sigma, synthetic setting (Figures 6(ii)-(v)).
func BenchmarkFig6Syn(b *testing.B) {
	for _, venue := range []string{"MC", "CPH"} {
		v, ix := benchIndex(b, venue)
		d := benchDefaults[venue]
		for _, sigma := range []float64{0.125, 2} {
			q := syntheticQuery(v, d.fe, d.fn, benchClients, ifls.Normal, sigma, 3)
			for _, solver := range []string{"efficient", "baseline"} {
				b.Run(fmt.Sprintf("%s/sigma=%g/%s", venue, sigma, solver), func(b *testing.B) {
					runSolver(b, ix, q, solver)
				})
			}
		}
	}
}

// BenchmarkFig7a — effect of |C|, synthetic setting (and Figure 8a memory).
func BenchmarkFig7a(b *testing.B) {
	for _, venue := range []string{"MC", "CH", "CPH"} {
		v, ix := benchIndex(b, venue)
		d := benchDefaults[venue]
		for _, nc := range []int{200, benchClients} {
			q := syntheticQuery(v, d.fe, d.fn, nc, ifls.Uniform, 0, 4)
			for _, solver := range []string{"efficient", "baseline"} {
				b.Run(fmt.Sprintf("%s/C=%d/%s", venue, nc, solver), func(b *testing.B) {
					runSolver(b, ix, q, solver)
				})
			}
		}
	}
}

// BenchmarkFig7aMZB — the largest venue, kept separate so -bench can skip it.
func BenchmarkFig7aMZB(b *testing.B) {
	v, ix := benchIndex(b, "MZB")
	d := benchDefaults["MZB"]
	q := syntheticQuery(v, d.fe, d.fn, 500, ifls.Uniform, 0, 4)
	for _, solver := range []string{"efficient", "baseline"} {
		b.Run(fmt.Sprintf("C=500/%s", solver), func(b *testing.B) {
			runSolver(b, ix, q, solver)
		})
	}
}

// BenchmarkFig7b — effect of |Fe|, synthetic setting (and Figure 8b).
func BenchmarkFig7b(b *testing.B) {
	venueSweeps := map[string][]int{
		"MC":  {25, 125},
		"CPH": {10, 30},
	}
	for _, venue := range []string{"MC", "CPH"} {
		v, ix := benchIndex(b, venue)
		d := benchDefaults[venue]
		for _, fe := range venueSweeps[venue] {
			q := syntheticQuery(v, fe, d.fn, benchClients, ifls.Uniform, 0, 5)
			for _, solver := range []string{"efficient", "baseline"} {
				b.Run(fmt.Sprintf("%s/Fe=%d/%s", venue, fe, solver), func(b *testing.B) {
					runSolver(b, ix, q, solver)
				})
			}
		}
	}
}

// BenchmarkFig7c — effect of |Fn|, synthetic setting (and Figure 8c).
func BenchmarkFig7c(b *testing.B) {
	venueSweeps := map[string][]int{
		"MC":  {100, 200},
		"CPH": {25, 45},
	}
	for _, venue := range []string{"MC", "CPH"} {
		v, ix := benchIndex(b, venue)
		d := benchDefaults[venue]
		for _, fn := range venueSweeps[venue] {
			q := syntheticQuery(v, d.fe, fn, benchClients, ifls.Uniform, 0, 6)
			for _, solver := range []string{"efficient", "baseline"} {
				b.Run(fmt.Sprintf("%s/Fn=%d/%s", venue, fn, solver), func(b *testing.B) {
					runSolver(b, ix, q, solver)
				})
			}
		}
	}
}

// BenchmarkIndexBuild measures VIP-tree construction per venue (the
// offline cost the paper amortizes).
func BenchmarkIndexBuild(b *testing.B) {
	for _, venue := range []string{"MC", "CPH"} {
		v, err := ifls.SampleVenue(venue)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(venue, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ifls.NewIndex(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVariants measures the Section 7 extensions on one default cell.
func BenchmarkVariants(b *testing.B) {
	v, ix := benchIndex(b, "MC")
	d := benchDefaults["MC"]
	q := syntheticQuery(v, d.fe, d.fn, benchClients, ifls.Uniform, 0, 7)
	b.Run("mindist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Query(context.Background(), q, ifls.QueryOptions{Objective: ifls.MinDist})
		}
	})
	b.Run("maxsum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Query(context.Background(), q, ifls.QueryOptions{Objective: ifls.MaxSum})
		}
	})
}

// BenchmarkAblationSession compares warm-session solves (explorer reuse,
// the dynamic-crowd scenario) against cold one-shot solves.
func BenchmarkAblationSession(b *testing.B) {
	v, ix := benchIndex(b, "MC")
	d := benchDefaults["MC"]
	q := syntheticQuery(v, d.fe, d.fn, benchClients, ifls.Uniform, 0, 9)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Query(context.Background(), q, ifls.QueryOptions{})
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess := ix.NewSession()
		sess.Query(context.Background(), q, ifls.QueryOptions{}) // warm-up outside the timed loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sess.Query(context.Background(), q, ifls.QueryOptions{})
		}
	})
}

// BenchmarkAblationIPTree compares the VIP-tree against the IP-tree
// (without leaf-to-ancestor matrices) on the same workload — the design
// choice DESIGN.md calls out.
func BenchmarkAblationIPTree(b *testing.B) {
	v, err := ifls.SampleVenue("MC")
	if err != nil {
		b.Fatal(err)
	}
	d := benchDefaults["MC"]
	q := syntheticQuery(v, d.fe, d.fn, benchClients, ifls.Uniform, 0, 8)
	vipIx, err := ifls.NewIndex(v)
	if err != nil {
		b.Fatal(err)
	}
	ipIx, err := ifls.NewIndexWithOptions(v, ifls.IndexOptions{IPTree: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("vip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vipIx.Query(context.Background(), q, ifls.QueryOptions{})
		}
	})
	b.Run("ip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ipIx.Query(context.Background(), q, ifls.QueryOptions{})
		}
	})
}

// BenchmarkQueryAt times one timed MinMax query with every door open: a
// 1000-client uniform query with 20 existing and 50 candidate facilities,
// answered on the masked door graph by the brute-force oracle.
func BenchmarkQueryAt(b *testing.B) {
	for _, name := range []string{"MC", "CH"} {
		b.Run(name, func(b *testing.B) {
			v, ix := benchIndex(b, name)
			q := syntheticQuery(v, 20, 50, benchClients, ifls.Uniform, 0, 1)
			tt := ix.NewTimetable()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.QueryAt(context.Background(), tt, 12*time.Hour, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLocate times Index.Locate on points drawn uniformly from each
// venue's bounding box, on a uniformly drawn level; some miss every
// partition, as a stray coordinate would.
func BenchmarkLocate(b *testing.B) {
	for _, name := range []string{"MC", "CH", "CPH", "MZB"} {
		b.Run(name, func(b *testing.B) {
			v, ix := benchIndex(b, name)
			rng := rand.New(rand.NewSource(1))
			bb := v.BoundingBox()
			pts := make([]ifls.Point, 1024)
			for i := range pts {
				pts[i] = ifls.Pt(bb.Min.X+rng.Float64()*bb.Width(), bb.Min.Y+rng.Float64()*bb.Height(), rng.Intn(v.Levels))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Locate(pts[i%len(pts)])
			}
		})
	}
}

// BenchmarkOpenIndexFile times opening and closing a paged index file,
// the index-side cost of a restart before the first query faults pages in.
func BenchmarkOpenIndexFile(b *testing.B) {
	b.Run("MC", func(b *testing.B) {
		v, ix := benchIndex(b, "MC")
		path := filepath.Join(b.TempDir(), "mc.vip")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.SavePaged(f, ifls.PagedSaveOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			px, err := ifls.OpenIndexFile(path, v, ifls.PagedIndexOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := px.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
