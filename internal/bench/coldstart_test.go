package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestColdStartSmoke runs the cold-start figure end to end on CPH. The
// figure checks both probe answers of the eager and the paged reader
// against the built tree, so passing here means a saved index reopens
// through both readers and answers exactly.
func TestColdStartSmoke(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Venues = []string{"CPH"}
	var buf bytes.Buffer
	if _, err := ColdStart(&buf, NewRunner(), cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, col := range []string{"eager-ready", "paged-ready", "paged-farq"} {
		if !strings.Contains(out, col) {
			t.Errorf("no %s column in output:\n%s", col, out)
		}
	}
	i := strings.Index(out, "\nCPH ")
	if i < 0 {
		t.Fatalf("no CPH row in output:\n%s", out)
	}
	if row := strings.Fields(out[i:]); len(row) < 7 || row[1] == "0" || row[1] == "-1" {
		t.Fatalf("CPH row without a file size:\n%s", out)
	}
}
