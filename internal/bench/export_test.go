package bench

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/workload"
)

func sampleMeasurements() []Measurement {
	cell := Cell{Venue: "CPH", Dist: workload.Uniform, NClients: 100, NExist: 10, NCand: 20, Seed: 1}
	return []Measurement{
		{Cell: cell, Solver: Efficient, Queries: 2, MeanTime: 10 * time.Millisecond,
			MeanAllocMB: 1.5, Stats: core.Stats{DistanceCalcs: 500, PrunedClients: 40}, Found: 2},
		{Cell: cell, Solver: Baseline, Queries: 2, MeanTime: 40 * time.Millisecond,
			MeanAllocMB: 6.0, Stats: core.Stats{DistanceCalcs: 2000, ConsideredClients: 7}, Found: 2},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleMeasurements()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output not valid CSV: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want header + 2", len(rows))
	}
	if rows[1][0] != "CPH" || rows[1][7] != "efficient" || rows[2][7] != "baseline" {
		t.Fatalf("unexpected rows: %v", rows)
	}
	if rows[1][9] != "10.000" {
		t.Fatalf("mean_time_ms = %q, want 10.000", rows[1][9])
	}
}

func TestSpeedups(t *testing.T) {
	min, mean, max, pairs := Speedups(sampleMeasurements())
	if pairs != 1 {
		t.Fatalf("pairs = %d", pairs)
	}
	if min != 4 || mean != 4 || max != 4 {
		t.Fatalf("speedups = %v/%v/%v, want 4x", min, mean, max)
	}
	if s := FormatSpeedups(sampleMeasurements()); !strings.Contains(s, "4.00x") {
		t.Fatalf("FormatSpeedups = %q", s)
	}
	// Unpaired measurements count nothing.
	if _, _, _, pairs := Speedups(sampleMeasurements()[:1]); pairs != 0 {
		t.Fatalf("unpaired counted: %d", pairs)
	}
}
