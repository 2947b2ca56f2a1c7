package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/testvenue"
	"github.com/indoorspatial/ifls/internal/vip"
)

// newGridServer builds a server over a multi-level grid venue large
// enough that a traversal costs real work, so coalescing has something to
// save, plus a representative query request against it. Both the
// identical-query and distinct-query benchmark variants share this setup.
func newGridServer(b *testing.B) (*Server, QueryRequest) {
	b.Helper()
	v := testvenue.Grid(testvenue.GridParams{Cols: 24, Levels: 4, InterRoomDoors: true})
	tree, err := vip.Build(v, vip.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := New(NewRegistry(), Options{})
	if err := s.Registry().Add("grid", v, tree); err != nil {
		b.Fatal(err)
	}

	var rooms []int32
	for _, p := range v.Partitions {
		if p.Kind == indoor.Room {
			rooms = append(rooms, int32(p.ID))
		}
	}
	req := QueryRequest{Venue: "grid", Objective: "minmax"}
	for i := 0; i < 3; i++ {
		req.Existing = append(req.Existing, rooms[(i*13)%len(rooms)])
	}
	for i := 0; i < 24; i++ {
		req.Candidates = append(req.Candidates, rooms[(i*7+1)%len(rooms)])
	}
	for i := 0; i < 32; i++ {
		p := v.Partition(indoor.PartitionID(rooms[(i*5+2)%len(rooms)]))
		c := p.Rect.Center()
		req.Clients = append(req.Clients, ClientJSON{
			ID: int32(i), X: c.X, Y: c.Y, Level: c.Level, Partition: int32(p.ID),
		})
	}
	return s, req
}

// benchConcurrent fires b.N queries from k concurrent clients. With
// distinct false every client sends the identical body — the coalescing
// sweet spot and the workload the serving layer's throughput criterion is
// measured on. With distinct true each client nudges its first client's
// coordinate by its own offset, so no two clients' queries share a
// fingerprint and every request runs its own traversal.
func benchConcurrent(b *testing.B, s *Server, req QueryRequest, k int, distinct bool) {
	b.Helper()
	bodies := make([][]byte, k)
	for c := range bodies {
		r := req
		if distinct {
			r.Clients = append([]ClientJSON(nil), req.Clients...)
			r.Clients[0].X += float64(c) / 100
		}
		body, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		bodies[c] = body
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/k + 1
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Errorf("status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(bodies[c])
	}
	wg.Wait()
}

func BenchmarkServeCoalesced8(b *testing.B) {
	s, req := newGridServer(b)
	benchConcurrent(b, s, req, 8, false)
}

func BenchmarkServeDistinct8(b *testing.B) {
	s, req := newGridServer(b)
	benchConcurrent(b, s, req, 8, true)
}

func BenchmarkServeCoalesced16(b *testing.B) {
	s, req := newGridServer(b)
	benchConcurrent(b, s, req, 16, false)
}

func BenchmarkServeDistinct16(b *testing.B) {
	s, req := newGridServer(b)
	benchConcurrent(b, s, req, 16, true)
}
