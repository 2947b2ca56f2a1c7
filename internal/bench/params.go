// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 6): the Table 2 parameter grid, a Runner that measures
// query processing time and memory cost over repeated IFLS queries, and
// per-figure sweep drivers with text table printers for Figures 5-8.
package bench

import (
	"fmt"

	"github.com/indoorspatial/ifls/internal/venues"
)

// SyntheticParams encodes one venue's column of Table 2 (synthetic
// setting).
type SyntheticParams struct {
	Venue     string
	FeSweep   []int
	FeDefault int
	FnSweep   []int
	FnDefault int
}

// Table2 holds the synthetic-setting parameter ranges of Table 2, keyed by
// venue short name. Defaults are the means of the ranges, as the paper
// specifies.
var Table2 = map[string]SyntheticParams{
	"MC":  {Venue: "MC", FeSweep: steps(25, 125, 25), FeDefault: 75, FnSweep: steps(100, 200, 25), FnDefault: 150},
	"CH":  {Venue: "CH", FeSweep: steps(50, 150, 25), FeDefault: 100, FnSweep: steps(100, 500, 100), FnDefault: 300},
	"CPH": {Venue: "CPH", FeSweep: steps(10, 30, 5), FeDefault: 20, FnSweep: steps(25, 45, 5), FnDefault: 35},
	"MZB": {Venue: "MZB", FeSweep: steps(100, 500, 100), FeDefault: 300, FnSweep: steps(300, 700, 100), FnDefault: 500},
}

// ClientSweep is the client-size sweep of Table 2 (both settings).
var ClientSweep = []int{1000, 5000, 10000, 15000, 20000}

// ClientDefault is the default client size. Table 2 marks defaults in bold,
// which the plain-text source does not preserve; the middle of the range is
// used, consistent with the "mean as default" rule for the other parameters.
const ClientDefault = 10000

// SigmaSweep is the normal-distribution standard-deviation sweep.
var SigmaSweep = []float64{0.125, 0.25, 0.5, 1, 2}

// SigmaDefault is the default sigma, the middle of the sweep.
const SigmaDefault = 0.5

// QueriesPerCell is the number of IFLS queries averaged per measurement,
// per Section 6.1.3.
const QueriesPerCell = 10

// RealCategories returns the real-setting category names in the paper's
// Figure 5 order.
func RealCategories() []string {
	names := make([]string, len(venues.Categories))
	for i, c := range venues.Categories {
		names[i] = c.Name
	}
	return names
}

func steps(lo, hi, delta int) []int {
	var out []int
	for v := lo; v <= hi; v += delta {
		out = append(out, v)
	}
	return out
}

// Validate sanity-checks the parameter grid against the generated venues
// (enough rooms for the largest Fe+Fn selection).
func Validate() error {
	for name, p := range Table2 {
		v, err := venues.ByName(name)
		if err != nil {
			return err
		}
		rooms := len(v.Rooms())
		// One parameter is swept at a time; the other stays at its
		// default (Section 6.1.2), so only those combinations must fit.
		maxFe := p.FeSweep[len(p.FeSweep)-1]
		maxFn := p.FnSweep[len(p.FnSweep)-1]
		if maxFe+p.FnDefault > rooms {
			return fmt.Errorf("bench: venue %s has %d rooms, Fe sweep needs %d", name, rooms, maxFe+p.FnDefault)
		}
		if p.FeDefault+maxFn > rooms {
			return fmt.Errorf("bench: venue %s has %d rooms, Fn sweep needs %d", name, rooms, p.FeDefault+maxFn)
		}
	}
	return nil
}
