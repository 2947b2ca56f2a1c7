package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/indoorspatial/ifls/internal/core"
)

// statusRow is one (HTTP status, error code) row of SERVING.md's status
// table.
type statusRow struct {
	status int
	code   string
}

var statusRowRE = regexp.MustCompile("^\\|\\s*(\\d{3})\\s*\\|\\s*`([a-z_]+)`")

// servingStatusTable parses the status table of SERVING.md — the rows
// after its "| HTTP | `code`" header, up to the first blank line.
func servingStatusTable(t testing.TB) map[statusRow]bool {
	t.Helper()
	f, err := os.Open("../../SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[statusRow]bool{}
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| HTTP | `code`"):
			in = true
		case in && strings.TrimSpace(line) == "":
			in = false
		case in:
			if m := statusRowRE.FindStringSubmatch(line); m != nil {
				status, _ := strconv.Atoi(m[1])
				rows[statusRow{status, m[2]}] = true
			}
		}
	}
	if len(rows) == 0 {
		t.Fatal("SERVING.md: no status table rows found")
	}
	return rows
}

// FuzzQueryRequest posts arbitrary bytes to /v1/query on the c3 venue. The
// handler must never panic; every non-200 answer must be a (status, code)
// row of SERVING.md's status table; and every 200 answer must equal
// core.Exec on the decoded query bit for bit — answer, objective value,
// ranking and work counters.
func FuzzQueryRequest(f *testing.F) {
	rows := servingStatusTable(f)
	for _, tc := range statusTableCases() {
		switch b := tc.body.(type) {
		case nil:
		case string:
			f.Add([]byte(b))
		default:
			body, err := json.Marshal(b)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	for _, obj := range []string{"minmax", "baseline", "mindist", "maxsum", "topk"} {
		req := c3Request()
		req.Objective, req.K = obj, 2
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	s, _ := newTestServer(f, Options{MaxBodyBytes: 256})
	tree, err := s.reg.lookup("c3").index(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatalf("status %d: error body is not JSON: %v\n%s", w.Code, err, w.Body.String())
			}
			if !rows[statusRow{w.Code, er.Code}] {
				t.Fatalf("(%d, %q) is not a row of SERVING.md's status table: %s", w.Code, er.Code, er.Error)
			}
			return
		}

		// Decode the body the way the handler does: the first JSON value,
		// trailing bytes ignored.
		var req QueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		bq, err := toBatchQuery(req)
		if err != nil {
			t.Fatalf("200 for a query the wire rejects: %v", err)
		}
		ref, err := core.Exec(context.Background(), tree, bq.Query, core.Options{Objective: bq.Objective, K: bq.K, Validate: true})
		if err != nil {
			t.Fatalf("200 for a query core.Exec rejects: %v", err)
		}
		var got QueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 body is not a QueryResponse: %v\n%s", err, w.Body.String())
		}
		want := ref.Outcome(bq.Objective)
		if got.Found != want.Found {
			t.Fatalf("found = %v, core.Exec says %v", got.Found, want.Found)
		}
		st := want.Stats
		if got.Stats != (StatsJSON{st.DistanceCalcs, st.Retrievals, st.QueuePops, st.PrunedClients, st.RetainedBytes}) {
			t.Errorf("stats = %+v, core.Exec says %+v", got.Stats, st)
		}
		if bq.Objective == core.ObjTopK {
			if len(got.Ranking) != len(ref.TopK) {
				t.Fatalf("ranking has %d entries, core.Exec has %d", len(got.Ranking), len(ref.TopK))
			}
			for i, rc := range ref.TopK {
				if g := got.Ranking[i]; g.Candidate != int32(rc.Candidate) || math.Float64bits(g.Value) != math.Float64bits(rc.Objective) {
					t.Errorf("ranking[%d] = %+v, core.Exec has %+v", i, g, rc)
				}
			}
			return
		}
		if !want.Found {
			if got.Answer != nil || got.Value != nil {
				t.Errorf("no answer expected, got answer %v value %v", got.Answer, got.Value)
			}
			return
		}
		switch {
		case got.Answer == nil:
			t.Errorf("answer missing, core.Exec says %d", want.Answer)
		case *got.Answer != int32(want.Answer):
			t.Errorf("answer = %d, core.Exec says %d", *got.Answer, want.Answer)
		}
		switch {
		case math.IsNaN(want.Value):
			if got.Value != nil {
				t.Errorf("value = %v, core.Exec has none", *got.Value)
			}
		case got.Value == nil:
			t.Errorf("value missing, core.Exec says %v", want.Value)
		case math.Float64bits(*got.Value) != math.Float64bits(want.Value):
			t.Errorf("value = %v, core.Exec says %v", *got.Value, want.Value)
		}
	})
}
