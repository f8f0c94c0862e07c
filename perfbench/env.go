package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"finwl/internal/fleet"
	"finwl/internal/obs"
	"finwl/internal/serve"
)

// workload is one named traffic mix.
type workload struct {
	fleet   bool // a router over fleetReplicas replicas; else one embedded server
	clients func() int
	start   func(e *env) runner
}

// runner is one run of a workload over one set of servers.
type runner interface {
	// warm fills caches before the timed phase (part of set-up).
	warm() error
	// round returns the next whole round of operations for a client.
	round(client int) []op
	// after checks what the servers' counters say about the timed
	// phase.
	after(ph *phaseStats) error
	// verify runs the post-phase correctness checks.
	verify() error
	// replay times each distinct model through the layers' public
	// functions (traced runs only).
	replay(rp *replayer) error
}

// op is one client operation; it returns nil on success or the
// *opError of the call that failed.
type op struct {
	class string
	run   func(ctx context.Context, c *client) error
}

// opError records a failed call's status and wire code.
type opError struct {
	Status int
	Code   string
	Msg    string
}

func (e *opError) Error() string { return fmt.Sprintf("HTTP %d %s: %s", e.Status, e.Code, e.Msg) }

var workloads = map[string]workload{
	"cold-paper":  {fleet: true, clients: func() int { return 1 }, start: startColdPaper},
	"warm-fleet":  {fleet: true, clients: runtime.NumCPU, start: startWarmFleet},
	"plan-loaded": {fleet: false, clients: runtime.NumCPU, start: startPlanLoaded},
}

// fleetReplicas is the replica count behind the router.
const fleetReplicas = 2

// env is one booted topology plus its load generator.
type env struct {
	opt      options
	nclients int
	url      string   // where clients send requests (router or embedded server)
	replicas []string // replica base URLs (router topology only)
	servers  []*serve.Server
	router   *fleet.Router
	https    []*httptest.Server
	hc       *http.Client
	chk      *checker
	tr       *tracer
	r        runner
}

// newEnv boots the workload's servers. With tr non-nil every front is
// built with serve.NewFront over a traced wrapper of the service.
func newEnv(w workload, opt options, tr *tracer, chk *checker) (*env, error) {
	e := &env{opt: opt, nclients: w.clients(), chk: chk, tr: tr}
	e.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: e.nclients,
		MaxConnsPerHost:     e.nclients,
		DisableCompression:  true,
	}}
	n := 1
	if w.fleet {
		n = fleetReplicas
	}
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{Seed: opt.seed*31 + int64(i) + 1})
		role := "embedded"
		if w.fleet {
			role = "replica"
		}
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.handler(role, serve.NewFront(tr.service(role, srv), srv, serve.FrontConfig{
				Registries: []*obs.Registry{srv.Metrics(), obs.Default},
			}).Handler())
		}
		hs := httptest.NewServer(h)
		e.servers = append(e.servers, srv)
		e.https = append(e.https, hs)
		e.replicas = append(e.replicas, hs.URL)
	}
	e.url = e.replicas[0]
	if w.fleet {
		rt, err := fleet.New(fleet.Config{Replicas: e.replicas, Seed: opt.seed*31 + 17})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("router: %w", err)
		}
		e.router = rt
		var h http.Handler = rt.Handler()
		if tr != nil {
			h = tr.handler("router", serve.NewFront(tr.service("router", rt), rt, serve.FrontConfig{
				Registries: []*obs.Registry{rt.Metrics(), obs.Default},
			}).Handler())
		}
		hs := httptest.NewServer(h)
		e.https = append(e.https, hs)
		e.url = hs.URL
	}
	e.r = w.start(e)
	return e, nil
}

// close drains every server and waits for its listeners to stop.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.router != nil {
		_ = e.router.Drain(ctx) // drain errors only report a forced cancel at shutdown
	}
	for _, s := range e.servers {
		_ = s.Drain(ctx)
	}
	e.hc.CloseIdleConnections()
	for i := len(e.https) - 1; i >= 0; i-- {
		e.https[i].Close()
	}
}

// client is one closed-loop load generator. Its counters are read
// only after the phase's goroutines have been waited for.
type client struct {
	e      *env
	codec  time.Duration // time in the generator's own JSON marshal/unmarshal
	codecN int64
	// Σ and count of the server-reported admission-queue waits.
	queueMS float64
	queueN  int64
	opID    string // X-Request-Id of the current op: spans of one op share it
}

var opSeq atomic.Int64

// post sends v as JSON to path and decodes a 2xx body into out; any
// other status becomes an *opError.
func (c *client) post(ctx context.Context, path string, v, out any) error {
	t0 := time.Now()
	body, err := json.Marshal(v)
	c.codec += time.Since(t0)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.e.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", c.opID)
	res, err := c.e.hc.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		var eb serve.ErrorBody
		_ = json.Unmarshal(raw, &eb) // a non-JSON error body keeps its status alone
		return &opError{Status: res.StatusCode, Code: eb.Code, Msg: eb.Error}
	}
	t1 := time.Now()
	err = json.Unmarshal(raw, out)
	c.codec += time.Since(t1)
	c.codecN++
	if err != nil {
		return fmt.Errorf("decode %s response: %w", path, err)
	}
	return nil
}

// getJSON reads a GET endpoint of one server (stats and metrics
// scrapes; not timed).
func (e *env) getJSON(url string, out any) error {
	res, err := e.hc.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, res.StatusCode)
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// replicaStats is the part of a server's GET /stats body the
// benchmark reads.
type replicaStats struct {
	Stats struct {
		Requests        int64 `json:"requests"`
		CacheHits       int64 `json:"cache_hits"`
		Retries         int64 `json:"retries"`
		Exact           int64 `json:"exact"`
		Checkpoint      int64 `json:"checkpoint"`
		BatchJobs       int64 `json:"batch_jobs"`
		BatchChainReuse int64 `json:"batch_chain_reuse"`
	} `json:"stats"`
	CacheLen  int `json:"cache_len"`
	SolverLen int `json:"solver_cache_len"`
}

// routerStats is the part of the router's GET /stats body the
// benchmark reads.
type routerStats struct {
	Failovers int64 `json:"failovers"`
}

// snapshot is every server's /stats at one instant.
type snapshot struct {
	replicas []replicaStats
	router   routerStats
}

func (e *env) snapshot() (snapshot, error) {
	var s snapshot
	for _, u := range e.replicas {
		var rs replicaStats
		if err := e.getJSON(u+"/stats", &rs); err != nil {
			return s, err
		}
		s.replicas = append(s.replicas, rs)
	}
	if e.router != nil {
		if err := e.getJSON(e.url+"/stats", &s.router); err != nil {
			return s, err
		}
	}
	return s, nil
}

// sum adds one counter across replicas.
func (s snapshot) sum(f func(replicaStats) int64) int64 {
	var t int64
	for _, r := range s.replicas {
		t += f(r)
	}
	return t
}

// noteQueue records an answer's server-side admission-queue wait.
func (c *client) noteQueue(t *serve.Timings) {
	if t != nil {
		c.queueMS += t.QueueMS
		c.queueN++
	}
}

func newOpID() string { return "b" + strconv.FormatInt(opSeq.Add(1), 10) }
