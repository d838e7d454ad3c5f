package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spotverse/internal/chaos"
	"spotverse/internal/experiment"
	"spotverse/internal/serve"
)

// The serve workload runs a spotverse-serve daemon in process: the CLI's
// defaults over experiment.NewServeSim(seed, chaos.Off) on the wall
// clock, behind a loopback net/http listener, except that the token
// bucket's rate is raised above any offered load so it does not set the
// capacity. Load is open loop: requests from
// experiment.GenerateServeTrace are sent on their schedule over at most
// one connection per processor, and each is timed from when it was due,
// so a stall also delays the requests queued behind it.

const (
	// serveRefRate is the fixed reference rate for the latency metrics,
	// well below the capacity of one connection per processor.
	serveRefRate = 1000.0
	// serveCapacityRequests is how many distinct requests the capacity
	// phase cycles through.
	serveCapacityRequests = 10000
	// serveWindow splits the reference phase by due time; the latency
	// metrics are medians over windows of each window's quantile.
	serveWindow = time.Second
	// serveCapacityPhase is one capacity measurement; each starts on
	// fresh connections and the median over them is reported.
	serveCapacityPhase = time.Second
	// serveTokenRate lifts the token bucket far above any offered load.
	serveTokenRate = 1e7
	// failedMs is the latency recorded for a failed request, so failures
	// count as over any limit.
	failedMs = 1e9
	// idHeader carries the request index to the traced pass's probes.
	idHeader = "X-Perfbench-Id"
)

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// serveRig is a running daemon: simulated deployment, server, listener.
type serveRig struct {
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	served  chan error
}

func startRig(seed int64, probe *serveProbe) (*serveRig, error) {
	sim, err := experiment.NewServeSim(seed, chaos.Off)
	if err != nil {
		return nil, err
	}
	var backend serve.Backend = sim.Backend
	if probe != nil {
		backend = wrapBackend(sim.Backend, probe)
	}
	srv, err := serve.New(serve.Config{Clock: wallClock{}, RatePerSec: serveTokenRate}, backend)
	if err != nil {
		return nil, err
	}
	if err := sim.Warm(srv, 20); err != nil { // the CLI's -warm-attempts default
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if probe != nil {
		h = probe.middleware(h)
	}
	r := &serveRig{srv: srv, httpSrv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	return r, nil
}

// stop drains the server, then shuts the listener down and waits for
// the serving goroutine to return.
func (r *serveRig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	derr := r.srv.Drain(ctx)
	serr := r.httpSrv.Shutdown(ctx)
	if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr)
}

// serveProbe records, per request index, the handler's and the
// backend's durations in the traced pass.
type serveProbe struct {
	handlerNs []atomic.Int64
	backendNs []atomic.Int64
}

type reqIDKey struct{}

// middleware times Server.Handler() and hands the request index to the
// backend wrapper through the request context. Requests without an
// index (set-up probes) pass through untimed.
func (p *serveProbe) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(idHeader))
		if err != nil || id < 0 || id >= len(p.handlerNs) {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		p.handlerNs[id].Store(int64(time.Since(t0)))
	})
}

func (p *serveProbe) backendDone(ctx context.Context, t0 time.Time) {
	if id, ok := ctx.Value(reqIDKey{}).(int); ok {
		p.backendNs[id].Store(int64(time.Since(t0)))
	}
}

// tracedBackend times every Backend call.
type tracedBackend struct {
	inner serve.Backend
	probe *serveProbe
}

func (b *tracedBackend) Place(ctx context.Context, req *serve.PlaceRequest, resp *serve.PlaceResponse) error {
	t0 := time.Now()
	err := b.inner.Place(ctx, req, resp)
	b.probe.backendDone(ctx, t0)
	return err
}

func (b *tracedBackend) Advisor(ctx context.Context) (*serve.AdvisorResponse, error) {
	t0 := time.Now()
	resp, err := b.inner.Advisor(ctx)
	b.probe.backendDone(ctx, t0)
	return resp, err
}

func (b *tracedBackend) Migrations(ctx context.Context) (*serve.MigrationsResponse, error) {
	t0 := time.Now()
	resp, err := b.inner.Migrations(ctx)
	b.probe.backendDone(ctx, t0)
	return resp, err
}

// flushingBackend is a tracedBackend over a backend that implements
// serve.Flusher; Drain's flush barrier reaches the inner backend.
type flushingBackend struct{ *tracedBackend }

func (b flushingBackend) Flush(ctx context.Context) error {
	return b.inner.(serve.Flusher).Flush(ctx)
}

// wrapBackend returns a timed backend that implements serve.Flusher
// exactly when inner does.
func wrapBackend(inner serve.Backend, probe *serveProbe) serve.Backend {
	t := &tracedBackend{inner: inner, probe: probe}
	if _, ok := inner.(serve.Flusher); ok {
		return flushingBackend{t}
	}
	return t
}

// serveRequest is one prepared HTTP request of a trace.
type serveRequest struct {
	endpoint string
	dueNs    int64 // offset from the phase start
	body     []byte
}

func prepareRequests(entries []serve.TraceEntry) ([]serveRequest, error) {
	reqs := make([]serveRequest, len(entries))
	for i, e := range entries {
		reqs[i] = serveRequest{endpoint: e.Endpoint, dueNs: e.AtMS * int64(time.Millisecond)}
		if e.Endpoint == serve.EndpointPlace {
			b, err := json.Marshal(serve.PlaceRequest{WorkloadID: e.WorkloadID, Count: e.Count, Exclude: e.Exclude})
			if err != nil {
				return nil, err
			}
			reqs[i].body = b
		}
	}
	return reqs, nil
}

// phaseResult is one open-loop phase's outcome.
type phaseResult struct {
	latMs    []float64 // due-time latency per request; failedMs when failed
	lateMs   []float64 // how late the generator sent each request
	failed   int
	failures []string
}

// client sends requests over at most procs connections.
type client struct {
	http  *http.Client
	base  string
	procs int
}

func newClient(base string, procs int) *client {
	tr := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base, procs: procs}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and checks for a 2xx status and a JSON body.
func (c *client) do(r *serveRequest, id int) error {
	method, body := http.MethodGet, io.Reader(nil)
	if r.endpoint == serve.EndpointPlace {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, c.base+"/v1/"+r.endpoint, body)
	if err != nil {
		return err
	}
	if id >= 0 {
		req.Header.Set(idHeader, strconv.Itoa(id))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", r.endpoint, resp.StatusCode, bytes.TrimSpace(b))
	}
	if !json.Valid(b) {
		return fmt.Errorf("%s: malformed JSON body %q", r.endpoint, b)
	}
	return nil
}

// runPhase sends reqs on schedule: a generator releases each request
// when due into a queue that procs senders drain. When traced, each
// request carries its index for the traced pass's probes.
func (c *client) runPhase(reqs []serveRequest, traced bool) phaseResult {
	res := phaseResult{latMs: make([]float64, len(reqs)), lateMs: make([]float64, len(reqs))}
	queue := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < c.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				id := -1
				if traced {
					id = i
				}
				err := c.do(&reqs[i], id)
				lat := ms(time.Since(start) - time.Duration(reqs[i].dueNs))
				if err != nil {
					lat = failedMs
					mu.Lock()
					res.failed++
					if len(res.failures) < 5 {
						res.failures = append(res.failures, err.Error())
					}
					mu.Unlock()
				}
				res.latMs[i] = lat
			}
		}()
	}
	for i := range reqs {
		due := start.Add(time.Duration(reqs[i].dueNs))
		if d := time.Until(due); d > 0 {
			sleepPrecise(d)
		}
		res.lateMs[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// saturate keeps every connection busy for d, cycling through reqs,
// and returns the completion rate: the most load the daemon sustains
// over procs connections, beyond which the backlog of an open loop
// grows without bound.
func (c *client) saturate(reqs []serveRequest, d time.Duration) (float64, phaseResult) {
	var (
		res  phaseResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	start := time.Now()
	for w := 0; w < c.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)-1) % len(reqs)
				if err := c.do(&reqs[i], -1); err != nil {
					mu.Lock()
					res.failed++
					if len(res.failures) < 5 {
						res.failures = append(res.failures, err.Error())
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return float64(next.Load()) / time.Since(start).Seconds(), res
}

func runServe(o *options, tr *tracer, _ int) (*measurement, error) {
	m := &measurement{}
	// The reference phase fills two thirds of the window, the capacity
	// phase the rest.
	refN := int(serveRefRate * o.seconds.Seconds() * 2 / 3)
	ref, err := prepareRequests(experiment.GenerateServeTrace(o.seed, refN, serveRefRate))
	if err != nil {
		return nil, err
	}
	capReqs, err := prepareRequests(experiment.GenerateServeTrace(deriveSeed(o.seed, 1), serveCapacityRequests, serveRefRate))
	if err != nil {
		return nil, err
	}
	var probe *serveProbe
	if tr != nil {
		probe = &serveProbe{handlerNs: make([]atomic.Int64, len(ref)), backendNs: make([]atomic.Int64, len(ref))}
	}

	// Set-up: deploy the simulated environment, build and warm the
	// server, open the listener, and answer one request per endpoint.
	// Every repetition but the last is torn down again.
	var (
		setups []float64
		rig    *serveRig
		c      *client
	)
	warmups := []serveRequest{{endpoint: serve.EndpointPlace, body: []byte(`{"workload_id":"warm"}`)},
		{endpoint: serve.EndpointAdvisor}, {endpoint: serve.EndpointMigrations}}
	for k := 0; k < setupReps; k++ {
		resetMarket()
		t0 := time.Now()
		if rig, err = startRig(o.seed, probe); err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		c = newClient(rig.base, o.procs)
		for i := range warmups {
			if err := c.do(&warmups[i], -1); err != nil {
				c.close()
				return nil, errors.Join(fmt.Errorf("serve set-up: %w", err), rig.stop())
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupReps-1 {
			c.close()
			if err := rig.stop(); err != nil {
				return nil, fmt.Errorf("serve set-up: %w", err)
			}
		}
	}
	m.setupS = median(setups)

	heap := startHeapSampler(5 * time.Millisecond)
	before := readRuntime()
	refRes := c.runPhase(ref, probe != nil)
	heapPeaks := []float64{heap.Take()}
	// The reference phase's outcome counts are what both passes must
	// agree on; the capacity phase's request count depends on the host.
	refStats := rig.srv.Stats()
	m.rendered = []byte(fmt.Sprintf("reference: requests=%d ok=%d degraded=%d shed=%d deadline=%d errors=%d\n",
		refStats.Requests, refStats.OK, refStats.Degraded, refStats.Shed, refStats.Deadline, refStats.Errors))
	// Capacity: a third of the window in one-second phases, each on
	// fresh connections, so one unlucky pair of connections does not set
	// the figure.
	var rates []float64
	phases := []phaseResult{refRes}
	for k := 0; k < max(1, int(o.seconds/3/serveCapacityPhase)); k++ {
		c.close()
		rate, res := c.saturate(capReqs, serveCapacityPhase)
		rates = append(rates, rate)
		heapPeaks = append(heapPeaks, heap.Take())
		phases = append(phases, res)
	}
	sent := int(rig.srv.Stats().Requests) - len(warmups)
	m.rt = runtimeSince(before, sent)
	heap.Stop()
	m.peakHeapMB = median(heapPeaks)
	c.close()
	stopErr := rig.stop()

	m.ops = sent
	m.attempted = sent
	m.p50Ms = windowed(ref, refRes.latMs, 0.5)
	m.throughput = median(rates)
	// The tail is reported per layer, unbounded: it swung several-fold
	// between runs with interference from outside the benchmark.
	m.untracedLayers = map[string]float64{
		"serve.request_p95_ms": windowed(ref, refRes.latMs, 0.95),
		"serve.request_p99_ms": quantile(refRes.latMs, 0.99),
	}
	fmt.Fprintf(o.diag, "serve reference %.0f req/s: p50 %.3f p95 %.3f p99 %.3f ms; capacity phases %.0f req/s\n",
		serveRefRate, m.p50Ms, m.untracedLayers["serve.request_p95_ms"], m.untracedLayers["serve.request_p99_ms"], rates)
	for _, ph := range phases {
		for _, f := range ph.failures {
			m.fail("serve request: %s", f)
		}
		for i := len(ph.failures); i < ph.failed; i++ {
			m.fail("serve request failed")
		}
	}
	// Drain and the Stats invariant are checks of their own.
	m.attempted += 2
	if stopErr != nil {
		m.fail("serve drain: %v", stopErr)
	}
	st := rig.srv.Stats()
	if st.Requests != st.OK+st.Degraded+st.Shed+st.Deadline+st.Errors {
		m.fail("serve stats: requests=%d ok=%d degraded=%d shed=%d deadline=%d errors=%d",
			st.Requests, st.OK, st.Degraded, st.Shed, st.Deadline, st.Errors)
	}
	if probe == nil {
		return m, nil
	}
	m.layers = serveLayers(probe, ref, refRes, st)
	return m, nil
}

// windowed returns the median over serveWindow-long windows of the
// q-quantile of the latencies due in each window, so a burst of
// interference shorter than half the phase moves it little. At the
// reference rate a window holds ten samples beyond its p99.
func windowed(reqs []serveRequest, latMs []float64, q float64) float64 {
	var perWindow, cur []float64
	window := int64(0)
	for i := range reqs {
		if k := reqs[i].dueNs / int64(serveWindow); k != window {
			if len(cur) > 0 {
				perWindow = append(perWindow, quantile(cur, q))
			}
			cur, window = cur[:0], k
		}
		cur = append(cur, latMs[i])
	}
	if len(cur) > 0 {
		perWindow = append(perWindow, quantile(cur, q))
	}
	return median(perWindow)
}

// serveLayers splits the reference phase's latency across the layers:
// client (generator, queueing for a connection, loopback), gate and pool
// (handler minus backend), and backend per endpoint.
func serveLayers(p *serveProbe, ref []serveRequest, res phaseResult, st serve.Stats) map[string]float64 {
	var handler, gatePool, client []float64
	backend := map[string][]float64{}
	for i := range ref {
		h := float64(p.handlerNs[i].Load()) / 1e6
		b := float64(p.backendNs[i].Load()) / 1e6
		handler = append(handler, h)
		gatePool = append(gatePool, h-b)
		client = append(client, res.latMs[i]-h)
		backend[ref[i].endpoint] = append(backend[ref[i].endpoint], b)
	}
	return map[string]float64{
		"serve.handler_p50_ms":        median(handler),
		"serve.handler_p99_ms":        quantile(handler, 0.99),
		"serve.backend.place_ms":      median(backend[serve.EndpointPlace]),
		"serve.backend.advisor_ms":    median(backend[serve.EndpointAdvisor]),
		"serve.backend.migrations_ms": median(backend[serve.EndpointMigrations]),
		"serve.gate_pool_ms":          median(gatePool),
		"serve.client_ms":             median(client),
		"serve.gen_lateness_ms":       quantile(res.lateMs, 0.99),
		"serve.shed":                  float64(st.Shed),
		"serve.deadline":              float64(st.Deadline),
		"serve.errors":                float64(st.Errors),
		"serve.queue_high_water":      float64(st.QueueHighWater),
		"serve.breaker_trips":         float64(st.BreakerTrips),
	}
}

// sleepPrecise sleeps in a nanosleep system call rather than on a
// runtime timer, whose wake-ups can be up to a millisecond late; the
// generator would otherwise add that lateness to every request.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
