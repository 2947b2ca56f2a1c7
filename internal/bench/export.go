package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes measurements as CSV with a header row, one row per
// (cell, solver) measurement, for downstream plotting.
func WriteCSV(w io.Writer, ms []Measurement) error {
	cw := csv.NewWriter(w)
	header := []string{
		"venue", "setting", "distribution", "sigma",
		"clients", "existing", "candidates", "solver", "queries",
		"mean_time_ms", "mean_alloc_mb",
		"distance_calcs", "retrievals", "queue_pops", "pruned_clients", "considered_clients",
		"found",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, m := range ms {
		setting := "synthetic"
		if m.Cell.Category != "" {
			setting = "real:" + m.Cell.Category
		}
		row := []string{
			m.Cell.Venue,
			setting,
			m.Cell.Dist.String(),
			strconv.FormatFloat(m.Cell.Sigma, 'g', -1, 64),
			strconv.Itoa(m.Cell.NClients),
			strconv.Itoa(m.Cell.NExist),
			strconv.Itoa(m.Cell.NCand),
			string(m.Solver),
			strconv.Itoa(m.Queries),
			strconv.FormatFloat(float64(m.MeanTime.Microseconds())/1000, 'f', 3, 64),
			strconv.FormatFloat(m.MeanAllocMB, 'f', 3, 64),
			strconv.Itoa(m.Stats.DistanceCalcs),
			strconv.Itoa(m.Stats.Retrievals),
			strconv.Itoa(m.Stats.QueuePops),
			strconv.Itoa(m.Stats.PrunedClients),
			strconv.Itoa(m.Stats.ConsideredClients),
			strconv.Itoa(m.Found),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Speedups summarizes efficient-vs-baseline speedups over a measurement
// list: it pairs consecutive (efficient, baseline) measurements of the same
// cell and reports the min, mean, and max time ratios — the headline
// numbers the paper's abstract quotes.
func Speedups(ms []Measurement) (min, mean, max float64, pairs int) {
	min = -1
	byKey := map[string]*[2]*Measurement{}
	for i := range ms {
		key := ms[i].Cell.String()
		slot, ok := byKey[key]
		if !ok {
			slot = &[2]*Measurement{}
			byKey[key] = slot
		}
		switch ms[i].Solver {
		case Efficient:
			slot[0] = &ms[i]
		case Baseline:
			slot[1] = &ms[i]
		}
	}
	sum := 0.0
	for _, slot := range byKey {
		if slot[0] == nil || slot[1] == nil || slot[0].MeanTime <= 0 {
			continue
		}
		s := float64(slot[1].MeanTime) / float64(slot[0].MeanTime)
		if min < 0 || s < min {
			min = s
		}
		if s > max {
			max = s
		}
		sum += s
		pairs++
	}
	if pairs > 0 {
		mean = sum / float64(pairs)
	}
	if min < 0 {
		min = 0
	}
	return min, mean, max, pairs
}

// FormatSpeedups renders Speedups for report footers.
func FormatSpeedups(ms []Measurement) string {
	min, mean, max, pairs := Speedups(ms)
	return fmt.Sprintf("speedup over %d cells: min %.2fx, mean %.2fx, max %.2fx", pairs, min, mean, max)
}
