package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/indoorspatial/ifls"
	"github.com/indoorspatial/ifls/internal/core"
	"github.com/indoorspatial/ifls/internal/indoor"
	"github.com/indoorspatial/ifls/internal/server"
	"github.com/indoorspatial/ifls/internal/vip"
	"github.com/indoorspatial/ifls/internal/workload"
)

const (
	mcVenue = "MC"
	// Every HTTP query has |Fe|=20 existing facilities, |Fn|=50 candidates
	// and |C|=1000 clients placed uniformly over the rooms.
	queryExisting, queryCandidates, queryClients = 20, 50, 1000
	// servePool is how many distinct queries serve-mc cycles through.
	servePool = 256
	// checkEvery selects the serve-mc responses checked: every 8th.
	checkEvery = 8
	// restartPool is how many distinct first queries restart-mc cycles
	// through.
	restartPool = 16
)

// poolQuery is one generated query and its pre-encoded request body.
type poolQuery struct {
	q    *core.Query
	body []byte
}

func makePool(v *indoor.Venue, seed int64, n int) ([]poolQuery, error) {
	g := workload.NewGenerator(v)
	rng := rand.New(rand.NewSource(seed))
	pool := make([]poolQuery, n)
	for i := range pool {
		q, err := g.Query(queryExisting, queryCandidates, queryClients, workload.Uniform, 0, rng)
		if err != nil {
			return nil, err
		}
		req := server.QueryRequest{
			Venue:      mcVenue,
			Existing:   make([]int32, len(q.Existing)),
			Candidates: make([]int32, len(q.Candidates)),
			Clients:    make([]server.ClientJSON, len(q.Clients)),
		}
		for i, f := range q.Existing {
			req.Existing[i] = int32(f)
		}
		for i, f := range q.Candidates {
			req.Candidates[i] = int32(f)
		}
		for i, c := range q.Clients {
			req.Clients[i] = server.ClientJSON{ID: c.ID, X: c.Loc.X, Y: c.Loc.Y, Level: c.Loc.Level, Partition: int32(c.Part)}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool[i] = poolQuery{q: q, body: body}
	}
	return pool, nil
}

// loopback serves a handler on a loopback listener.
type loopback struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		hs:   &http.Server{Handler: h},
		url:  "http://" + ln.Addr().String() + "/v1/query",
		done: make(chan struct{}),
	}
	go func() {
		defer close(lb.done)
		_ = lb.hs.Serve(ln) // always http.ErrServerClosed once close runs
	}()
	return lb, nil
}

// close stops the listener and its connections and waits for Serve to
// return.
func (lb *loopback) close() {
	_ = lb.hs.Close()
	<-lb.done
}

// post sends one query and decodes the answer; a non-200 status is an
// error.
func post(c *http.Client, url string, body []byte) (server.QueryResponse, error) {
	var out server.QueryResponse
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return out, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decoding answer: %w", err)
	}
	// Drain the trailing newline so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return out, nil
}

// wireResult converts an answer back to the solver's result.
func wireResult(r server.QueryResponse) core.Result {
	res := core.Result{Found: r.Found, Answer: indoor.NoPartition, Objective: math.NaN()}
	if r.Answer != nil {
		res.Answer = indoor.PartitionID(*r.Answer)
	}
	if r.Value != nil {
		res.Objective = *r.Value
	}
	return res
}

// solveDuration is the solve time the server reports in an answer.
func solveDuration(r server.QueryResponse) time.Duration {
	return time.Duration(r.ElapsedMS * float64(time.Millisecond))
}

// serveState is serve-mc's server, clients and query pool.
type serveState struct {
	oracle *vip.Tree
	pool   []poolQuery
	srv    *ifls.Server
	lb     *loopback
	client *http.Client
}

func newServeState(r *result, seed int64) (*serveState, error) {
	v, err := ifls.SampleVenue(mcVenue)
	if err != nil {
		return nil, err
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		return nil, err
	}
	oracle, err := r.buildTree(v)
	if err != nil {
		return nil, err
	}
	pool, err := makePool(v, seed, servePool)
	if err != nil {
		return nil, err
	}
	s := &serveState{oracle: oracle, pool: pool}
	s.srv = ifls.NewServer(ifls.ServerOptions{Metrics: ifls.NewMetrics()})
	if err := s.srv.AddVenue(mcVenue, ix); err != nil {
		return nil, err
	}
	if s.lb, err = listen(s.srv.Handler()); err != nil {
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	return s, nil
}

func (s *serveState) close() {
	s.client.CloseIdleConnections()
	s.lb.close()
	_ = s.srv.Shutdown(context.Background()) // nothing is in flight
}

// serveRec is one timed request.
type serveRec struct {
	seq        int
	start, end time.Time
	resp       server.QueryResponse
	err        error
}

// drive runs the closed-loop client until the operations have taken
// budget: it sends the next request only once the previous answer is
// decoded, and probes the host in between.
func (s *serveState) drive(m *meter, budget time.Duration, seq *int) []serveRec {
	var recs []serveRec
	var used time.Duration
	for used < budget {
		rec := serveRec{seq: *seq}
		*seq++
		rec.start = time.Now()
		rec.resp, rec.err = post(s.client, s.lb.url, s.pool[rec.seq%len(s.pool)].body)
		rec.end = time.Now()
		d := rec.end.Sub(rec.start)
		used += d
		if rec.err == nil {
			m.add(d)
		}
		recs = append(recs, rec)
	}
	return recs
}

func runServe(cfg config) (*result, error) {
	r := newResult(cfg.probe)
	s, err := setup(r, func() (*serveState, error) { return newServeState(r, cfg.seed) }, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	// One untimed request opens the connection.
	start := time.Now()
	if _, err := post(s.client, s.lb.url, s.pool[0].body); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.warmup.add(time.Since(start))

	seq := 0
	var all []serveRec
	for _, traced := range cfg.phases() {
		recs := s.drive(r.phase(traced), cfg.budget(), &seq)
		ok, coalesced := 0, 0
		for _, rec := range recs {
			if rec.err != nil || !traced {
				continue
			}
			ok++
			root := r.spans.add(rec.seq, -1, "server.request", rec.start, rec.end)
			r.spans.add(rec.seq, root, "core.solve", rec.start, rec.start.Add(solveDuration(rec.resp)))
			if rec.resp.Coalesced {
				coalesced++
			}
		}
		if ok > 0 {
			r.count("server.coalesce_hit_ratio", float64(coalesced)/float64(ok))
		}
		all = append(all, recs...)
	}

	want := map[int]core.Result{}
	for _, rec := range all {
		r.attempted++
		if rec.err != nil {
			fmt.Fprintf(os.Stderr, "serve-mc: request %d: %v\n", rec.seq, rec.err)
			r.failed++
			continue
		}
		if rec.seq%checkEvery != 0 {
			continue
		}
		qi := rec.seq % len(s.pool)
		w, ok := want[qi]
		if !ok {
			if w, _, err = r.solve(s.oracle, s.pool[qi].q); err != nil {
				return nil, err
			}
			want[qi] = w
		}
		r.checked++
		if got := wireResult(rec.resp); !sameResult(got, w) {
			fmt.Fprintf(os.Stderr, "serve-mc: request %d answered %+v, core.Exec %+v\n", rec.seq, got, w)
			r.failed++
		}
	}
	s.pool, s.oracle = nil, nil
	r.heap = heapAfterGC()
	return r, nil
}

// restartState is restart-mc's saved index file and first queries.
type restartState struct {
	v      *ifls.Venue
	path   string
	oracle *vip.Tree
	pool   []poolQuery
	m      *ifls.Metrics
}

func newRestartState(r *result, cfg config) (*restartState, error) {
	v, err := ifls.SampleVenue(mcVenue)
	if err != nil {
		return nil, err
	}
	ix, err := ifls.NewIndex(v)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, "mc.vip")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := ix.SavePaged(f, ifls.PagedSaveOptions{}); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	oracle, err := r.buildTree(v)
	if err != nil {
		return nil, err
	}
	pool, err := makePool(v, cfg.seed, restartPool)
	if err != nil {
		return nil, err
	}
	return &restartState{v: v, path: path, oracle: oracle, pool: pool, m: ifls.NewMetrics()}, nil
}

// booted is a server answering from a freshly opened paged index.
type booted struct {
	ix     *ifls.Index
	srv    *ifls.Server
	lb     *loopback
	client *http.Client
}

// boot opens the index file with the default page cache and starts a
// server on it; opened is when the index was ready.
func (s *restartState) boot() (b *booted, opened time.Time, err error) {
	ix, err := ifls.OpenIndexFile(s.path, s.v, ifls.PagedIndexOptions{Metrics: s.m})
	if err != nil {
		return nil, opened, err
	}
	opened = time.Now()
	srv := ifls.NewServer(ifls.ServerOptions{Metrics: s.m})
	if err := srv.AddVenue(mcVenue, ix); err != nil {
		ix.Close()
		return nil, opened, err
	}
	lb, err := listen(srv.Handler())
	if err != nil {
		ix.Close()
		return nil, opened, err
	}
	return &booted{ix: ix, srv: srv, lb: lb, client: &http.Client{Transport: &http.Transport{}}}, opened, nil
}

// stop shuts the server down and closes the index; stopped is when only
// the index was left to close.
func (b *booted) stop() (stopped time.Time, err error) {
	b.client.CloseIdleConnections()
	b.lb.close()
	err = b.srv.Shutdown(context.Background())
	stopped = time.Now()
	if cerr := b.ix.Close(); err == nil {
		err = cerr
	}
	return stopped, err
}

// bootRec is one timed restart: open the index file, start serving,
// answer the first query, stop.
type bootRec struct {
	qi                                                int
	start, opened, serving, answered, stopped, closed time.Time
	resp                                              server.QueryResponse
	err                                               error
	// hits, misses and reads are the page cache's counts for the restart.
	hits, misses, reads int64
}

func (s *restartState) cycle(qi int) bootRec {
	rec := bootRec{qi: qi}
	before := s.m.Snapshot()
	rec.start = time.Now()
	b, opened, err := s.boot()
	if err != nil {
		rec.closed, rec.err = time.Now(), err
		return rec
	}
	rec.opened, rec.serving = opened, time.Now()
	rec.resp, rec.err = post(b.client, b.lb.url, s.pool[qi].body)
	rec.answered = time.Now()
	rec.stopped, err = b.stop()
	rec.closed = time.Now()
	if rec.err == nil {
		rec.err = err
	}
	after := s.m.Snapshot()
	rec.hits = after.PageCacheHits - before.PageCacheHits
	rec.misses = after.PageCacheMisses - before.PageCacheMisses
	rec.reads = after.PagesRead - before.PagesRead
	return rec
}

func runRestart(cfg config) (*result, error) {
	r := newResult(cfg.probe)
	s, err := setup(r, func() (*restartState, error) { return newRestartState(r, cfg) }, func(*restartState) {})
	if err != nil {
		return nil, err
	}

	var all, traced []bootRec
	for _, tr := range cfg.phases() {
		m := r.phase(tr)
		var used time.Duration
		for used < cfg.budget() {
			rec := s.cycle(len(all) % len(s.pool))
			d := rec.closed.Sub(rec.start)
			used += d
			if rec.err == nil {
				m.add(d)
				if tr {
					traced = append(traced, rec)
				}
			}
			all = append(all, rec)
		}
	}

	want := map[int]core.Result{}
	resident := map[int]time.Duration{}
	for i, rec := range all {
		r.attempted++
		if rec.err != nil {
			fmt.Fprintf(os.Stderr, "restart-mc: restart %d: %v\n", i, rec.err)
			r.failed++
			continue
		}
		w, ok := want[rec.qi]
		if !ok {
			if w, resident[rec.qi], err = r.solve(s.oracle, s.pool[rec.qi].q); err != nil {
				return nil, err
			}
			want[rec.qi] = w
		}
		r.checked++
		if got := wireResult(rec.resp); !sameResult(got, w) {
			fmt.Fprintf(os.Stderr, "restart-mc: restart %d answered %+v, core.Exec %+v\n", i, got, w)
			r.failed++
		}
	}

	// The paged solve is split into the work the same query does on the
	// resident index (core), scaled to the host speed of the restart, and
	// the rest (pager).
	var hits, misses, reads int64
	coalesced := 0
	for op, rec := range traced {
		root := r.spans.add(op, -1, "server.restart", rec.start, rec.closed)
		r.spans.add(op, root, "pager.open", rec.start, rec.opened)
		req := r.spans.add(op, root, "server.request", rec.serving, rec.answered)
		solve := solveDuration(rec.resp)
		work := min(time.Duration(float64(resident[rec.qi])/r.tracedOps.factor(op)), solve)
		r.spans.add(op, req, "core.solve", rec.serving, rec.serving.Add(work))
		r.spans.add(op, req, "pager.access", rec.serving.Add(work), rec.serving.Add(solve))
		r.spans.add(op, root, "pager.close", rec.stopped, rec.closed)
		hits, misses, reads = hits+rec.hits, misses+rec.misses, reads+rec.reads
		if rec.resp.Coalesced {
			coalesced++
		}
	}
	if n := len(traced); n > 0 {
		r.count("pager.pages_read_per_op", float64(reads)/float64(n))
		r.count("pager.hit_ratio", float64(hits)/float64(hits+misses))
		r.count("server.coalesce_hit_ratio", float64(coalesced)/float64(n))
	}

	// Memory is measured on one more, untimed, boot that has answered its
	// first query: what a restarted daemon holds.
	body := s.pool[0].body
	s.pool, s.oracle = nil, nil
	b, _, err := s.boot()
	if err != nil {
		return nil, err
	}
	_, err = post(b.client, b.lb.url, body)
	r.heap = heapAfterGC()
	if _, serr := b.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("measuring memory: %w", err)
	}
	return r, nil
}
